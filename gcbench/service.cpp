/**
 * @file
 * Request service and workload table. See service.h.
 */

#include "service.h"

#include "assertions/violation.h"
#include "support/json.h"

namespace gcbench {

using namespace gcassert;

namespace {

/** Requests per client between two sampled (span-recorded) ones. */
constexpr uint64_t kSampleEvery = 1024;

/** Sampled requests per client, at most (bounds the trace size). */
constexpr uint64_t kMaxSampled = 500;

/** LRU cache entries; the key space is 4x this, so half the lookups
 *  miss and insert with eviction. */
constexpr uint32_t kCacheCapacity = 128;

/** Pooled reply buffers and their payload. */
constexpr uint32_t kPoolBuffers = 16;
constexpr uint32_t kBufferBytes = 1024;

/**
 * The workloads. Each one says why it is here; BENCHMARK.json
 * repeats the reason.
 *
 * alldead-4t: the paper's per-request region idiom under 4 closed-
 * loop clients on the default runtime configuration (sequential GC,
 * paths on, no TLAB). Two exclusive-lock region calls per request;
 * alldead finish work dominates the pause, while mark is cheap
 * because the live set is tiny. Heap = 2x the server's 4 MiB floor.
 *
 * plain-4t: the same loop, threads, seeds and configuration with no
 * region or assertion calls. It drives the allocator, barrier, lock
 * and sweep exactly as alldead-4t does, so an assertion-layer change
 * should read the same here and a per-allocation cost shows here.
 *
 * owned-heap-1t: one client over a ~20 MB live set of 10^5 sessions,
 * each asserted owned by the session table, with a one-instance limit
 * on the (unowned) cache type; heap = ~2x live, 4 GC threads, paths
 * off. No lock contention and no regions: the pause is ownership
 * scan + parallel mark + parallel sweep over a large heap.
 */
const WorkloadSpec kWorkloads[] = {
    {"alldead-4t", 4, true, 1024, 256, 48, false, 8ull << 20, 1, true},
    {"plain-4t", 4, false, 1024, 256, 48, false, 8ull << 20, 1, true},
    {"owned-heap-1t", 1, false, 0, 100000, 112, true, 40ull << 20, 4,
     false},
};

/** The region label of @p seq on @p worker. */
std::string
regionLabel(uint32_t worker, uint64_t seq)
{
    return "client-" + std::to_string(worker) + "/req-" +
           std::to_string(seq);
}

/**
 * The region label an alldead message names ("... region '<label>'
 * is reachable."); empty when it names none.
 */
std::string
labelInMessage(const std::string &message)
{
    const std::string open = "region '";
    size_t begin = message.find(open);
    if (begin == std::string::npos)
        return {};
    begin += open.size();
    size_t end = message.find('\'', begin);
    if (end == std::string::npos)
        return {};
    return message.substr(begin, end - begin);
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : kWorkloads)
        if (name == spec.name)
            return &spec;
    return nullptr;
}

std::string
workloadNames()
{
    std::string names;
    for (const WorkloadSpec &spec : kWorkloads) {
        if (!names.empty())
            names += ", ";
        names += spec.name;
    }
    return names;
}

RuntimeConfig
pinnedConfig(const WorkloadSpec &spec, const std::string &traceFile)
{
    RuntimeConfig config;
    config.heap.budgetBytes = spec.heapBytes;
    config.heap.allowGrowth = true;
    config.heap.growthFactor = 1.5;
    config.heap.generational = false;
    config.infrastructure = true;
    config.recordPaths = spec.recordPaths;
    config.markThreads = spec.gcThreads;
    config.sweepThreads = spec.gcThreads;
    config.lazySweep = false;
    config.tlab = false;
    config.generational = false;
    config.nurseryKb = 4096;
    config.incrementalAssert = false;
    config.backgraph = false;
    config.backgraphInDegreeCap = 8;
    config.backgraphWindow = 3;
    config.engine.stickyDeadAssertions = false;
    config.engine.orphanedOwneeIsViolation = true;
    config.observe.traceFile = traceFile;
    config.observe.metricsSink = "";
    config.observe.censusEvery = 0;
    config.observe.pauseBudgetNanos = 0;
    config.observe.livePort = 0;
    config.observe.liveHistory = 64;
    config.observe.violationRingCap = 256;
    config.observe.traceFlushMillis = 0;
    config.verboseGc = false;
    return config;
}

std::string
configJson(const RuntimeConfig &config)
{
    JsonWriter w;
    w.beginObject()
        .field("heapBudgetBytes", config.heap.budgetBytes)
        .field("heapAllowGrowth", config.heap.allowGrowth)
        .field("heapGrowthFactor", config.heap.growthFactor)
        .field("infrastructure", config.infrastructure)
        .field("recordPaths", config.recordPaths)
        .field("markThreads", config.markThreads)
        .field("sweepThreads", config.sweepThreads)
        .field("lazySweep", config.lazySweep)
        .field("tlab", config.tlab)
        .field("generational", config.generational)
        .field("nurseryKb", config.nurseryKb)
        .field("incrementalAssert", config.incrementalAssert)
        .field("backgraph", config.backgraph)
        .field("stickyDeadAssertions",
               config.engine.stickyDeadAssertions)
        .field("orphanedOwneeIsViolation",
               config.engine.orphanedOwneeIsViolation)
        .field("telemetry", config.observe.any())
        .endObject();
    return w.str();
}

Service::Service(const WorkloadSpec &spec, Runtime &runtime)
    : spec_(spec), runtime_(runtime)
{
}

void
Service::setup(Probe &probe)
{
    auto &types = runtime_.types();
    sessionType_ =
        types.define("BenchSession").refs({"user"}).scalars(24).build();
    userType_ = types.define("BenchUser").scalars(spec_.userBytes).build();
    tableType_ = types.define("BenchTable").array().build();
    cacheType_ = types.define("BenchCache")
                     .refs({"head", "tail"})
                     .scalars(8)
                     .build();
    entryType_ = types.define("BenchCacheEntry")
                     .refs({"value", "prev", "next"})
                     .scalars(16)
                     .build();
    valueType_ = types.define("BenchCacheValue").scalars(64).build();
    bufferType_ =
        types.define("BenchBuffer").scalars(kBufferBytes).build();
    requestType_ =
        types.define("BenchRequest").refs({"first"}).scalars(24).build();
    nodeType_ =
        types.define("BenchNode").refs({"next"}).scalars(24).build();
    leakListType_ =
        types.define("BenchLeakList").refs({"head"}).scalars(8).build();

    sessionUserSlot_ = types.get(sessionType_).slotIndex("user");
    cacheHeadSlot_ = types.get(cacheType_).slotIndex("head");
    cacheTailSlot_ = types.get(cacheType_).slotIndex("tail");
    entryValueSlot_ = types.get(entryType_).slotIndex("value");
    entryPrevSlot_ = types.get(entryType_).slotIndex("prev");
    entryNextSlot_ = types.get(entryType_).slotIndex("next");
    requestFirstSlot_ = types.get(requestType_).slotIndex("first");
    nodeNextSlot_ = types.get(nodeType_).slotIndex("next");
    leakHeadSlot_ = types.get(leakListType_).slotIndex("head");

    sessionTable_ =
        Handle(runtime_, runtime_.allocArrayRaw(tableType_, spec_.sessions),
               "bench.sessions");
    for (uint32_t i = 0; i < spec_.sessions; ++i) {
        Object *session = runtime_.allocLocal(sessionType_);
        session->setScalar<uint64_t>(0, i);
        Object *user = runtime_.allocLocal(userType_);
        user->setScalar<uint64_t>(0, i);
        runtime_.writeRef(session, sessionUserSlot_, user);
        runtime_.writeRef(sessionTable_.get(), i, session);
        runtime_.dropLocalRoots();
        if (spec_.heapAssertions)
            probe.time(Call::AssertOwnedBy, [&] {
                runtime_.assertOwnedBy(sessionTable_.get(), session);
            });
    }

    cache_ = Handle(runtime_, runtime_.allocRaw(cacheType_), "bench.cache");
    if (spec_.heapAssertions)
        runtime_.assertInstances(cacheType_, 1);

    pool_ = Handle(runtime_,
                   runtime_.allocArrayRaw(tableType_, kPoolBuffers),
                   "bench.pool");
    for (uint32_t i = 0; i < kPoolBuffers; ++i) {
        Object *buffer = runtime_.allocLocal(bufferType_);
        runtime_.writeRef(pool_.get(), i, buffer);
        runtime_.dropLocalRoots();
        poolFree_.push_back(i);
    }

    leakList_ = Handle(runtime_, runtime_.allocRaw(leakListType_),
                       "bench.leaks");
}

void
Service::writeRef(Client &client, Object *src, uint32_t slot,
                  Object *target)
{
    client.probe.time(Call::WriteRef,
                      [&] { runtime_.writeRef(src, slot, target); });
}

void
Service::cachePushFront(Client &client, Object *entry)
{
    Object *old_head = cache_->ref(cacheHeadSlot_);
    writeRef(client, entry, entryPrevSlot_, nullptr);
    writeRef(client, entry, entryNextSlot_, old_head);
    if (old_head)
        writeRef(client, old_head, entryPrevSlot_, entry);
    writeRef(client, cache_.get(), cacheHeadSlot_, entry);
    if (!cache_->ref(cacheTailSlot_))
        writeRef(client, cache_.get(), cacheTailSlot_, entry);
}

void
Service::cacheUnlink(Client &client, Object *entry)
{
    Object *prev = entry->ref(entryPrevSlot_);
    Object *next = entry->ref(entryNextSlot_);
    if (prev)
        writeRef(client, prev, entryNextSlot_, next);
    else
        writeRef(client, cache_.get(), cacheHeadSlot_, next);
    if (next)
        writeRef(client, next, entryPrevSlot_, prev);
    else
        writeRef(client, cache_.get(), cacheTailSlot_, prev);
    writeRef(client, entry, entryPrevSlot_, nullptr);
    writeRef(client, entry, entryNextSlot_, nullptr);
}

void
Service::cacheLookupOrInsert(Client &client, uint64_t key)
{
    // Caller holds shared_.
    auto it = cacheIndex_.find(key);
    if (it != cacheIndex_.end()) {
        Object *entry = it->second;
        entry->setScalar<uint64_t>(8, entry->scalar<uint64_t>(8) + 1);
        cacheUnlink(client, entry);
        cachePushFront(client, entry);
        return;
    }

    Object *entry = client.probe.alloc(runtime_, entryType_, client.mutator);
    entry->setScalar<uint64_t>(0, key);
    Object *value = client.probe.alloc(runtime_, valueType_, client.mutator);
    value->setScalar<uint64_t>(0, key);
    writeRef(client, entry, entryValueSlot_, value);
    cachePushFront(client, entry);
    cacheIndex_[key] = entry;
    ++cacheSize_;

    if (cacheSize_ > kCacheCapacity) {
        Object *victim = cache_->ref(cacheTailSlot_);
        cacheUnlink(client, victim);
        cacheIndex_.erase(victim->scalar<uint64_t>(0));
        --cacheSize_;
    }
}

void
Service::serve(Client &client)
{
    uint64_t seq = ++client.seq;
    Probe &probe = client.probe;
    probe.beginRequest((uint64_t{client.worker} << 40) | seq,
                       seq % kSampleEvery == 0 &&
                           probe.sampledRequests() < kMaxSampled);
    auto lockShared = [&] {
        return probe.time(Call::SharedWait, [&] {
            return std::unique_lock<std::mutex>(shared_);
        });
    };

    // Every input is drawn up front, so a client's request stream
    // depends only on its seed, never on how threads interleave.
    Rng &rng = client.rng;
    uint32_t session_idx = static_cast<uint32_t>(rng.below(spec_.sessions));
    bool refresh = rng.chance(0.02);
    bool touch_cache = rng.chance(0.5);
    uint64_t key = rng.below(uint64_t{kCacheCapacity} * 4);
    uint32_t chain = 6 + static_cast<uint32_t>(rng.below(8));
    bool leak = spec_.leakEvery != 0 && seq % spec_.leakEvery == 0;

    // Persistent phase, before the region opens: its allocations are
    // long-lived and must never be flushed as must-die.
    uint32_t pool_idx = UINT32_MAX;
    Object *buffer = nullptr;
    {
        std::unique_lock<std::mutex> guard = lockShared();
        Object *session = sessionTable_->ref(session_idx);
        session->setScalar<uint64_t>(8, session->scalar<uint64_t>(8) + 1);
        session->setScalar<uint64_t>(16, seq);
        if (refresh) {
            Object *user = probe.alloc(runtime_, userType_, client.mutator);
            user->setScalar<uint64_t>(0, session_idx);
            writeRef(client, session, sessionUserSlot_, user);
        }
        if (touch_cache)
            cacheLookupOrInsert(client, key);
        if (!poolFree_.empty()) {
            pool_idx = poolFree_.back();
            poolFree_.pop_back();
            if (++poolCheckouts_ % 512 == 0) {
                Object *fresh =
                    probe.alloc(runtime_, bufferType_, client.mutator);
                writeRef(client, pool_.get(), pool_idx, fresh);
            }
            buffer = pool_->ref(pool_idx);
        }
    }
    probe.time(Call::DropRoots,
               [&] { runtime_.dropLocalRoots(client.mutator); });

    // Request region: everything allocated from here to the reply
    // must be garbage once the request completes.
    std::string label;
    if (spec_.regions) {
        label = regionLabel(client.worker, seq);
        probe.time(Call::StartRegion,
                   [&] { runtime_.startRegion(client.mutator, label); });
    }

    Object *req = probe.alloc(runtime_, requestType_, client.mutator);
    req->setScalar<uint64_t>(0, seq);
    Object *head = nullptr;
    uint64_t digest = seq;
    for (uint32_t i = 0; i < chain; ++i) {
        Object *node = probe.alloc(runtime_, nodeType_, client.mutator);
        node->setScalar<uint64_t>(0, seq ^ i);
        uint64_t payload = rng.next();
        node->setScalar<uint64_t>(8, payload);
        digest ^= payload;
        writeRef(client, node, nodeNextSlot_, head);
        head = node;
    }
    writeRef(client, req, requestFirstSlot_, head);

    // The reply: read the chain back through the heap and check it
    // against what was written.
    uint64_t check = seq;
    uint32_t length = 0;
    for (Object *node = req->ref(requestFirstSlot_); node != nullptr;
         node = node->ref(nodeNextSlot_)) {
        check ^= node->scalar<uint64_t>(8);
        ++length;
    }
    if (check != digest || length != chain)
        ++client.badReplies;
    if (buffer) {
        uint32_t words = kBufferBytes / 8;
        if (words > 16)
            words = 16;
        for (uint32_t i = 0; i < words; ++i)
            buffer->setScalar<uint64_t>(i * 8, digest + i);
    }

    if (leak || pool_idx != UINT32_MAX) {
        std::unique_lock<std::mutex> guard = lockShared();
        if (leak) {
            // The chain head escapes into the rooted leak list (its
            // next pointer is rewired, so the rest of the chain
            // still dies).
            writeRef(client, head, nodeNextSlot_,
                     leakList_->ref(leakHeadSlot_));
            writeRef(client, leakList_.get(), leakHeadSlot_, head);
            ++client.leaks;
            if (spec_.regions)
                client.leakedLabels.push_back(label);
        }
        if (pool_idx != UINT32_MAX)
            poolFree_.push_back(pool_idx);
    }

    // Unpin the scratch before the flush, so a collection landing in
    // between sees it unreachable.
    probe.time(Call::DropRoots,
               [&] { runtime_.dropLocalRoots(client.mutator); });
    if (spec_.regions)
        probe.time(Call::AssertAllDead,
                   [&] { runtime_.assertAllDead(client.mutator); });

    ++client.completed;
    probe.endRequest();
}

uint64_t
Service::checkStructure() const
{
    uint64_t bad = 0;
    for (uint32_t i = 0; i < spec_.sessions; ++i) {
        const Object *session = sessionTable_->ref(i);
        if (session == nullptr || session->scalar<uint64_t>(0) != i) {
            ++bad;
            continue;
        }
        const Object *user = session->ref(sessionUserSlot_);
        if (user == nullptr || user->scalar<uint64_t>(0) != i)
            ++bad;
    }

    uint64_t listed = 0;
    const Object *prev = nullptr;
    for (const Object *entry = cache_->ref(cacheHeadSlot_);
         entry != nullptr; entry = entry->ref(entryNextSlot_)) {
        uint64_t key = entry->scalar<uint64_t>(0);
        auto it = cacheIndex_.find(key);
        const Object *value = entry->ref(entryValueSlot_);
        if (entry->ref(entryPrevSlot_) != prev ||
            it == cacheIndex_.end() || it->second != entry ||
            value == nullptr || value->scalar<uint64_t>(0) != key)
            ++bad;
        prev = entry;
        if (++listed > cacheIndex_.size())
            break;
    }
    if (listed != cacheSize_ || cacheIndex_.size() != cacheSize_ ||
        cache_->ref(cacheTailSlot_) != prev)
        ++bad;

    for (uint32_t i = 0; i < kPoolBuffers; ++i)
        if (pool_->ref(i) == nullptr)
            ++bad;
    if (poolFree_.size() != kPoolBuffers)
        ++bad;
    return bad;
}

VerdictCheck
Service::checkVerdicts(const std::vector<Client> &clients) const
{
    std::unordered_map<std::string, uint64_t> named;
    for (const Client &client : clients)
        for (const std::string &label : client.leakedLabels)
            named.emplace(label, 0);

    VerdictCheck check;
    for (const Violation &v : runtime_.violations()) {
        if (assertionKindContextOnly(v.kind))
            continue;
        ++check.verdicts;
        if (v.kind != AssertionKind::AllDead) {
            ++check.unexpected;
            continue;
        }
        ++check.allDeadVerdicts;
        auto it = named.find(labelInMessage(v.message));
        if (it == named.end())
            ++check.unexpected;
        else
            ++it->second;
    }
    for (const auto &[label, count] : named)
        if (count != 1)
            ++check.missing;
    return check;
}

} // namespace gcbench
