/**
 * @file
 * Probe implementation. See probe.h.
 */

#include "probe.h"

#include "support/json.h"

namespace gcbench {

using namespace gcassert;

const char *
callName(Call call)
{
    switch (call) {
    case Call::Alloc:
        return "runtime.alloc";
    case Call::AllocGc:
        return "runtime.alloc_gc";
    case Call::WriteRef:
        return "runtime.write_ref";
    case Call::DropRoots:
        return "runtime.drop_roots";
    case Call::StartRegion:
        return "assertions.start_region";
    case Call::AssertAllDead:
        return "assertions.assert_alldead";
    case Call::AssertOwnedBy:
        return "assertions.assert_ownedby";
    case Call::SharedWait:
        return "client.shared_wait";
    }
    return "unknown";
}

void
CallTally::merge(const CallTally &other)
{
    calls += other.calls;
    busyNanos += other.busyNanos;
    latency.merge(other.latency);
}

Probe::Probe(Telemetry *telemetry, uint32_t tid)
    : telemetry_(telemetry), tid_(tid)
{
}

uint64_t
Probe::gcEpoch() const
{
    // The collector publishes one snapshot at the end of every full
    // GC (the benchmark never publishes on its own), under a mutex
    // of the history, so this read is race-free from any thread.
    return telemetry_->history().latestSeq();
}

Object *
Probe::alloc(Runtime &runtime, TypeId type, MutatorContext *mutator)
{
    if (!on())
        return runtime.allocLocal(type, mutator);
    uint64_t epoch = gcEpoch();
    uint64_t begin = nowNanos();
    Object *obj = runtime.allocLocal(type, mutator);
    uint64_t end = nowNanos();
    note(gcEpoch() != epoch ? Call::AllocGc : Call::Alloc, begin, end);
    return obj;
}

void
Probe::note(Call call, uint64_t begin, uint64_t end)
{
    uint64_t nanos = end - begin;
    CallTally &tally = tallies_[static_cast<size_t>(call)];
    ++tally.calls;
    tally.busyNanos += nanos;
    tally.latency.record(nanos);
    if (inRequest_) {
        childNanos_ += nanos;
        if (sampled_)
            spans_.push_back({call, begin, end});
    }
}

void
Probe::beginRequest(uint64_t requestId, bool sampled)
{
    if (!on())
        return;
    inRequest_ = true;
    sampled_ = sampled;
    requestId_ = requestId;
    childNanos_ = 0;
    spans_.clear();
    requestBegin_ = nowNanos();
}

void
Probe::endRequest()
{
    if (!on())
        return;
    uint64_t end = nowNanos();
    inRequest_ = false;
    uint64_t wall = end - requestBegin_;
    selfNanos_ += wall > childNanos_ ? wall - childNanos_ : 0;
    if (!sampled_)
        return;
    ++sampledRequests_;
    JsonWriter args;
    args.beginObject().field("req", requestId_).endObject();
    TraceRecorder *recorder = telemetry_->recorder();
    recorder->complete("request", "client", requestBegin_, end, tid_,
                       args.str());
    for (const Span &span : spans_)
        recorder->complete(callName(span.call), "client", span.begin,
                           span.end, tid_, args.str());
    spans_.clear();
}

} // namespace gcbench
