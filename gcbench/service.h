/**
 * @file
 * The benchmark's request service and its workloads.
 *
 * The request shape is the one src/workloads/server uses, rebuilt
 * here so the benchmark owns its client loop and can time every call
 * into the library from outside. A request
 *
 *  1. touches a session (2% of requests replace its user profile),
 *  2. does an LRU cache lookup, or an insert with eviction,
 *  3. allocates a 6-13 node scratch chain that dies at the reply,
 *     checks the chain's digest, and renders it into a pooled buffer.
 *
 * With regions on, step 3 runs inside a labelled start-region /
 * assert-alldead region, and every leakEvery-th request of a client
 * leaks its chain head into a rooted list, so the next full GC must
 * report exactly one alldead violation naming that request.
 */

#ifndef GCBENCH_SERVICE_H
#define GCBENCH_SERVICE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "probe.h"
#include "runtime/handle.h"
#include "runtime/runtime.h"
#include "support/rng.h"

namespace gcbench {

/** One benchmark workload: traffic shape, live set and runtime. */
struct WorkloadSpec {
    const char *name;
    /** Closed-loop client threads (each one registered mutator). */
    uint32_t threads;
    /** Bracket every request in a labelled alldead region. */
    bool regions;
    /** Leak one chain head every N requests per client; 0 = never. */
    uint32_t leakEvery;
    uint32_t sessions;
    /** Payload of a session's user profile. */
    uint32_t userBytes;
    /** assert-ownedby(session table, session) for every session and
     *  assert-instances(cache type, 1). */
    bool heapAssertions;
    /** Heap budget in bytes. */
    uint64_t heapBytes;
    /** Marker and sweeper threads of the collector. */
    uint32_t gcThreads;
    bool recordPaths;
};

/** The workload named @p name; nullptr when there is none. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of every workload, for usage text. */
std::string workloadNames();

/**
 * The runtime configuration of @p spec with every field the
 * workloads depend on set explicitly, so no GCASSERT_* environment
 * default can reach it. @p traceFile arms telemetry (traced run).
 */
gcassert::RuntimeConfig pinnedConfig(const WorkloadSpec &spec,
                                     const std::string &traceFile);

/** @p config as a JSON object, for the result stamp. */
std::string configJson(const gcassert::RuntimeConfig &config);

/** One closed-loop client thread's state. */
struct Client {
    Client(uint32_t worker, gcassert::MutatorContext &mutator,
           uint64_t seed)
        : worker(worker), mutator(&mutator), rng(seed)
    {}

    uint32_t worker;
    gcassert::MutatorContext *mutator;
    /** Drives every input of this client's requests. */
    gcassert::Rng rng;
    Probe probe;
    /** Requests issued (the id of the latest one). */
    uint64_t seq = 0;
    uint64_t completed = 0;
    /** Replies whose chain failed the digest check. */
    uint64_t badReplies = 0;
    /** Region labels of the requests that leaked. */
    std::vector<std::string> leakedLabels;
    /** Leaks injected, labelled or not. */
    uint64_t leaks = 0;
};

/** Outcome of checking a run's verdicts against its leaks. */
struct VerdictCheck {
    uint64_t verdicts = 0;
    uint64_t allDeadVerdicts = 0;
    /** Leaked requests without exactly one violation naming them. */
    uint64_t missing = 0;
    /** Verdicts that name no leaked request. */
    uint64_t unexpected = 0;
};

/**
 * The shared server state of one runtime. Handles keep the live set
 * rooted, so a Service must be destroyed before its Runtime.
 */
class Service {
  public:
    Service(const WorkloadSpec &spec, gcassert::Runtime &runtime);

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Define the types and build the live set (and its assertions,
     * timed through @p probe). Single-threaded.
     */
    void setup(Probe &probe);

    /** Serve one request for @p client. */
    void serve(Client &client);

    /**
     * Walk the session table and the LRU list after the clients have
     * stopped; returns the number of inconsistencies found.
     */
    uint64_t checkStructure() const;

    /** Match the runtime's verdicts against @p clients' leaks. */
    VerdictCheck checkVerdicts(const std::vector<Client> &clients) const;

  private:
    void cacheLookupOrInsert(Client &client, uint64_t key);
    void cacheUnlink(Client &client, gcassert::Object *entry);
    void cachePushFront(Client &client, gcassert::Object *entry);
    void writeRef(Client &client, gcassert::Object *src, uint32_t slot,
                  gcassert::Object *target);

    const WorkloadSpec &spec_;
    gcassert::Runtime &runtime_;

    gcassert::TypeId sessionType_ = gcassert::kInvalidTypeId;
    gcassert::TypeId userType_ = gcassert::kInvalidTypeId;
    gcassert::TypeId tableType_ = gcassert::kInvalidTypeId;
    gcassert::TypeId cacheType_ = gcassert::kInvalidTypeId;
    gcassert::TypeId entryType_ = gcassert::kInvalidTypeId;
    gcassert::TypeId valueType_ = gcassert::kInvalidTypeId;
    gcassert::TypeId bufferType_ = gcassert::kInvalidTypeId;
    gcassert::TypeId requestType_ = gcassert::kInvalidTypeId;
    gcassert::TypeId nodeType_ = gcassert::kInvalidTypeId;
    gcassert::TypeId leakListType_ = gcassert::kInvalidTypeId;

    uint32_t sessionUserSlot_ = 0;
    uint32_t cacheHeadSlot_ = 0;
    uint32_t cacheTailSlot_ = 0;
    uint32_t entryValueSlot_ = 0;
    uint32_t entryPrevSlot_ = 0;
    uint32_t entryNextSlot_ = 0;
    uint32_t requestFirstSlot_ = 0;
    uint32_t nodeNextSlot_ = 0;
    uint32_t leakHeadSlot_ = 0;

    gcassert::Handle sessionTable_;
    gcassert::Handle cache_;
    gcassert::Handle pool_;
    gcassert::Handle leakList_;

    /** Guards the sessions, cache, pool and leak list. Always taken
     *  before (outside) any runtime lock. */
    std::mutex shared_;
    std::unordered_map<uint64_t, gcassert::Object *> cacheIndex_;
    uint64_t cacheSize_ = 0;
    std::vector<uint32_t> poolFree_;
    uint64_t poolCheckouts_ = 0;
};

} // namespace gcbench

#endif // GCBENCH_SERVICE_H
