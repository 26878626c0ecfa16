/**
 * @file
 * Per-call timers and sampled request spans for the traced run.
 *
 * Every call the benchmark's client makes into a gcassert layer goes
 * through a Probe. In untraced runs the probe is off and each call
 * costs one predictable branch. In the traced run it times the call
 * from outside the library (steady clock on both sides), folds the
 * duration into a per-layer tally, and — for a sampled subset of
 * requests — keeps the call as a span carrying the request id, to be
 * written into the runtime's own Chrome trace next to the
 * collector's phase spans.
 */

#ifndef GCBENCH_PROBE_H
#define GCBENCH_PROBE_H

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "observe/pause_slo.h"
#include "observe/telemetry.h"
#include "runtime/runtime.h"
#include "support/stopwatch.h"

namespace gcbench {

/** The timed call sites, one per layer boundary. */
enum class Call : uint8_t {
    Alloc,         //!< Runtime::allocLocal with no collection inside
    AllocGc,       //!< Runtime::allocLocal that overlapped a full GC
    WriteRef,      //!< Runtime::writeRef
    DropRoots,     //!< Runtime::dropLocalRoots
    StartRegion,   //!< Runtime::startRegion
    AssertAllDead, //!< Runtime::assertAllDead
    AssertOwnedBy, //!< Runtime::assertOwnedBy (set-up only)
    SharedWait,    //!< client: waiting for the shared-state mutex
};

constexpr size_t kNumCalls = 8;

/** Span name of @p call, e.g. "runtime.alloc". */
const char *callName(Call call);

/** Count, busy time and latency distribution of one call site. */
struct CallTally {
    uint64_t calls = 0;
    uint64_t busyNanos = 0;
    gcassert::PauseHistogram latency;

    void merge(const CallTally &other);
};

/**
 * One client thread's timers. Not thread-safe: each client thread
 * owns its probe, and the tallies are merged after the threads join.
 */
class Probe {
  public:
    /** A probe that times nothing (untraced runs). */
    Probe() = default;

    /**
     * A live probe. @p telemetry supplies the collection epoch that
     * splits allocation calls into Alloc and AllocGc, and the trace
     * recorder sampled spans are written to, so it must have one and
     * outlive the probe. @p tid is the client thread's trace tid.
     */
    Probe(gcassert::Telemetry *telemetry, uint32_t tid);

    bool on() const { return telemetry_ != nullptr; }

    /** Run @p fn, timed as @p call when the probe is on. */
    template <typename Fn>
    decltype(auto)
    time(Call call, Fn &&fn)
    {
        if (!on())
            return fn();
        uint64_t begin = gcassert::nowNanos();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            note(call, begin, gcassert::nowNanos());
        } else {
            decltype(auto) result = fn();
            note(call, begin, gcassert::nowNanos());
            return result;
        }
    }

    /**
     * Runtime::allocLocal, classified by whether a full collection
     * finished while the call was in flight: a stop-the-world GC
     * either ran inside this call or held the lock the call waited
     * for, so the epoch moving is exactly "overlapped a collection".
     */
    gcassert::Object *alloc(gcassert::Runtime &runtime,
                            gcassert::TypeId type,
                            gcassert::MutatorContext *mutator);

    /** @name Request brackets (self time and sampled spans)
     *  @{ */
    void beginRequest(uint64_t requestId, bool sampled);
    void endRequest();
    /** @} */

    const std::array<CallTally, kNumCalls> &tallies() const
    {
        return tallies_;
    }

    /** Request wall time not covered by any timed call. */
    uint64_t selfNanos() const { return selfNanos_; }

    /** Requests whose spans went into the trace. */
    uint64_t sampledRequests() const { return sampledRequests_; }

  private:
    struct Span {
        Call call;
        uint64_t begin;
        uint64_t end;
    };

    void note(Call call, uint64_t begin, uint64_t end);

    uint64_t gcEpoch() const;

    gcassert::Telemetry *telemetry_ = nullptr;
    uint32_t tid_ = 0;
    std::array<CallTally, kNumCalls> tallies_;

    bool inRequest_ = false;
    bool sampled_ = false;
    uint64_t requestId_ = 0;
    uint64_t requestBegin_ = 0;
    uint64_t childNanos_ = 0;
    uint64_t selfNanos_ = 0;
    uint64_t sampledRequests_ = 0;
    std::vector<Span> spans_;
};

} // namespace gcbench

#endif // GCBENCH_PROBE_H
