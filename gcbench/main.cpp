/**
 * @file
 * gcbench: the gcassert request-loop benchmark.
 *
 *   gcbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--requests R] [--commit SHA] [--source-digest HEX]
 *
 * Closed-loop clients (each sends its next request as soon as the
 * previous one returns) drive the library through its public API for
 * S seconds, or for exactly R requests per client with --requests.
 *
 * --trace 0 prints the end-to-end metrics of an untraced run; set-up
 * is repeated kSetupRepeats times and its median reported. --trace 1
 * runs half the window untraced and half traced (per-call timers,
 * telemetry, sampled request spans written to
 * .bench_out/<workload>-<seed>.trace.json) and prints the per-layer
 * metrics. Every run checks its outputs: requests completed, reply
 * digests, the shared structures, and that the verdicts are exactly
 * one alldead violation per injected leak, naming the leaking
 * request, and nothing else.
 *
 * Standard output ends with one JSON line:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * preceded by a "stamp" line (commit, host, build type, seed and the
 * resolved runtime configuration) and a "summary" line.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "probe.h"
#include "service.h"
#include "support/json.h"
#include "support/logging.h"

extern char **environ;

namespace gcbench {
namespace {

using namespace gcassert;

/** Set-ups timed per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 15;

/** Latency samples kept per window, split across clients and slices. */
constexpr size_t kLatencySamples = size_t{1} << 20;

/** Equal time slices a timed window is cut into. */
constexpr size_t kSlices = 10;

/** Share of a timed untraced run spent warming up, unmeasured: the
 *  heap fills and the first collections run before any figure is
 *  taken. */
constexpr double kWarmupShare = 0.25;

struct Options {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    uint64_t requests = 0;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "gcbench: %s\n"
                 "usage: gcbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--requests R] [--commit SHA] "
                 "[--source-digest HEX]\nworkloads: %s\n",
                 error.c_str(), workloadNames().c_str());
    std::exit(2);
}

bool
parseUint(const char *text, uint64_t &out)
{
    if (*text == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        uint64_t n = 0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            if (!parseUint(value, opt.seed))
                usage("bad --seed");
        } else if (flag == "--seconds") {
            if (!parseUint(value, n) || n < 1 || n > 600)
                usage("--seconds must be a whole number in [1, 600]");
            opt.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (!parseUint(value, n) || n > 1)
                usage("--trace must be 0 or 1");
            opt.trace = static_cast<int>(n);
        } else if (flag == "--requests") {
            if (!parseUint(value, opt.requests) || opt.requests < 1)
                usage("bad --requests");
        } else if (flag == "--commit") {
            opt.commit = value;
        } else if (flag == "--source-digest") {
            opt.sourceDigest = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opt.workload.empty() || opt.trace < 0 ||
        (opt.seconds == 0 && opt.requests == 0))
        usage("--workload, --seed, --trace and --seconds are required");
    return opt;
}

/** The CPUs this process may run on (what nproc counts). */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    return cpus;
}

/** Bind the calling thread to @p cpu. */
void
pinToCpu(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

/** Seed of client @p worker's request stream (SplitMix64 step). */
uint64_t
clientSeed(uint64_t seed, uint32_t worker)
{
    uint64_t z = seed + (uint64_t{worker} + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Counts warnings instead of printing them: every alldead violation
 * is logged as a warning with its root path, and a run reports
 * hundreds. The first few are echoed so a surprise is visible.
 */
class CountingSink : public LogSink {
  public:
    void
    write(const LogRecord &record) override
    {
        uint64_t n = records_.fetch_add(1, std::memory_order_relaxed);
        if (n < 3 || record.level != LogLevel::Warn)
            std::fprintf(stderr, "[%s] %s\n", logLevelName(record.level),
                         record.message.c_str());
    }

    uint64_t records() const { return records_.load(); }

  private:
    std::atomic<uint64_t> records_{0};
};

/**
 * Uniform sample of request latencies (Vitter's algorithm R): exact
 * values, fixed memory.
 */
class Reservoir {
  public:
    Reservoir(size_t capacity, uint64_t seed)
        : samples_(capacity), state_(seed | 1)
    {}

    void
    add(uint64_t nanos)
    {
        uint32_t v = nanos > UINT32_MAX ? UINT32_MAX
                                        : static_cast<uint32_t>(nanos);
        if (seen_ < samples_.size()) {
            samples_[seen_] = v;
        } else {
            // xorshift64: independent of the request-input stream.
            state_ ^= state_ << 13;
            state_ ^= state_ >> 7;
            state_ ^= state_ << 17;
            uint64_t j = state_ % (seen_ + 1);
            if (j < samples_.size())
                samples_[j] = v;
        }
        ++seen_;
    }

    void
    appendTo(std::vector<uint32_t> &out) const
    {
        size_t n = std::min<uint64_t>(seen_, samples_.size());
        out.insert(out.end(), samples_.begin(), samples_.begin() + n);
    }

  private:
    std::vector<uint32_t> samples_;
    uint64_t seen_ = 0;
    uint64_t state_;
};

/**
 * One client's record of a window cut into equal time slices:
 * completions and a latency reservoir per slice. The end-to-end
 * figures are medians over slices, so a burst of interference from
 * outside the process moves only the slices it lands in.
 */
struct SliceRecord {
    std::vector<uint64_t> completed;
    std::vector<Reservoir> latency;

    SliceRecord(size_t slices, size_t capacity, uint64_t seed)
        : completed(slices, 0)
    {
        for (size_t i = 0; i < slices; ++i)
            latency.emplace_back(capacity, seed + i);
    }
};

/** Fresh slice records for every client of @p spec. Allocated (and
 *  touched) before set-up, so their memory is a constant share of
 *  peak RSS whatever the throughput. */
std::vector<SliceRecord>
makeRecords(const WorkloadSpec &spec, uint64_t seed, size_t slices)
{
    std::vector<SliceRecord> out;
    for (uint32_t w = 0; w < spec.threads; ++w)
        out.emplace_back(slices, kLatencySamples / (spec.threads * slices),
                         clientSeed(seed ^ 0x5EED, w));
    return out;
}

/** A runtime with its service and clients. Members are destroyed in
 *  reverse order: clients, then the service's handles, then the
 *  runtime they root into. */
struct Instance {
    std::unique_ptr<Runtime> runtime;
    std::unique_ptr<Service> service;
    std::vector<Client> clients;
    Probe setupProbe;
};

std::unique_ptr<Instance>
makeInstance(const WorkloadSpec &spec, uint64_t seed,
             const std::string &traceFile)
{
    auto inst = std::make_unique<Instance>();
    inst->runtime =
        std::make_unique<Runtime>(pinnedConfig(spec, traceFile));
    Telemetry *telemetry =
        traceFile.empty() ? nullptr : inst->runtime->telemetry();
    if (telemetry) {
        // Keep every span in memory until the runtime flushes the
        // trace at teardown, so file writes never land mid-window.
        telemetry->recorder()->setMaxBuffered(size_t{1} << 24);
        inst->setupProbe = Probe(telemetry, 0);
    }
    inst->service = std::make_unique<Service>(spec, *inst->runtime);
    inst->service->setup(inst->setupProbe);
    inst->clients.reserve(spec.threads);
    for (uint32_t w = 0; w < spec.threads; ++w) {
        MutatorContext &mutator =
            inst->runtime->registerMutator("client-" + std::to_string(w));
        inst->clients.emplace_back(w, mutator, clientSeed(seed, w));
        if (telemetry)
            inst->clients.back().probe = Probe(telemetry, 100 + w);
    }
    return inst;
}

/** The window's outcome as seen from the client side. */
struct Window {
    uint64_t nanos = 0;
    uint64_t completed = 0;
    uint64_t attempted = 0;
    std::string error;
};

/**
 * Run every client of a fresh instance in its own thread for
 * @p seconds (or exactly @p requests requests each when non-zero),
 * recording each request into the slice of @p records it completed
 * in (a fixed-request run is one slice). Empty @p records record
 * nothing (a warm-up, or a traced run).
 *
 * With several clients, each is bound to its own CPU. Unbound, the
 * scheduler sometimes stacks two clients on one CPU, and the
 * runtime lock then keeps going back to the running thread: one
 * client serves most requests while the others starve, for the
 * whole run. Binding makes that regime rare (README.md). A single
 * client stays unbound, because the collector's worker threads
 * inherit the affinity of the thread that starts them.
 */
Window
runClients(Instance &inst, double seconds, uint64_t requests,
           std::vector<SliceRecord> &records)
{
    uint64_t slices = records.empty() ? 1 : records[0].completed.size();
    std::vector<int> cpus = allowedCpus();
    std::atomic<bool> go{false};
    std::atomic<bool> abort{false};
    std::mutex errorMutex;
    Window window;
    uint64_t start = 0;
    uint64_t span = static_cast<uint64_t>(seconds * 1e9);
    uint64_t deadline = 0;
    std::vector<std::thread> threads;
    for (size_t w = 0; w < inst.clients.size(); ++w) {
        threads.emplace_back([&, w] {
            Client &client = inst.clients[w];
            SliceRecord *record = records.empty() ? nullptr : &records[w];
            if (inst.clients.size() > 1)
                pinToCpu(cpus[w]);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            try {
                uint64_t stop = client.seq + requests;
                uint64_t now = nowNanos();
                while (!abort.load(std::memory_order_relaxed) &&
                       (requests ? client.seq < stop : now < deadline)) {
                    inst.service->serve(client);
                    uint64_t end = nowNanos();
                    uint64_t slice =
                        slices == 1 ? 0
                                    : std::min((end - start) * slices / span,
                                               slices - 1);
                    if (record) {
                        ++record->completed[slice];
                        record->latency[slice].add(end - now);
                    }
                    now = end;
                }
            } catch (const std::exception &e) {
                abort.store(true);
                std::lock_guard<std::mutex> guard(errorMutex);
                if (window.error.empty())
                    window.error = e.what();
            }
        });
    }
    start = nowNanos();
    deadline = start + span;
    go.store(true, std::memory_order_release);
    for (std::thread &thread : threads)
        thread.join();
    window.nanos = nowNanos() - start;
    for (const Client &client : inst.clients) {
        window.attempted += client.seq;
        window.completed += client.completed;
    }
    return window;
}

/** Nearest-rank percentile of sorted @p v, in microseconds. */
double
percentileUs(const std::vector<uint32_t> &v, double p)
{
    if (v.empty())
        return 0;
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1] / 1e3;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Ordered metric list: name -> (value, unit). */
struct Metrics {
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, {value, unit}});
    }
};

/** The run's correctness tally, summed over every window. */
struct RunTally {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    JsonWriter summary;
};

/**
 * Collect once more, so leaks from the last requests get their
 * verdicts, then check everything the run produced and add the
 * window to @p tally.
 */
VerdictCheck
checkRun(Instance &inst, const Window &window, RunTally &tally,
         const char *tag)
{
    inst.runtime->collect();
    uint64_t bad_replies = 0;
    uint64_t leaks = 0;
    for (const Client &client : inst.clients) {
        bad_replies += client.badReplies;
        leaks += client.leaks;
    }
    uint64_t structure = inst.service->checkStructure();
    VerdictCheck verdicts = inst.service->checkVerdicts(inst.clients);
    uint64_t lost = window.attempted - std::min(window.attempted,
                                                window.completed);
    uint64_t failed = lost + bad_replies + structure + verdicts.missing +
                      verdicts.unexpected;
    tally.attempted += window.attempted;
    tally.failed += failed;
    if (failed != 0 || !window.error.empty())
        tally.correct = false;
    if (!window.error.empty())
        std::fprintf(stderr, "gcbench: %s run failed: %s\n", tag,
                     window.error.c_str());

    tally.summary.key(tag)
        .beginObject()
        .field("requests", window.completed)
        .field("attempted", window.attempted)
        .field("windowSeconds", static_cast<double>(window.nanos) / 1e9)
        .field("leaks", leaks)
        .field("verdicts", verdicts.verdicts)
        .field("alldeadVerdicts", verdicts.allDeadVerdicts)
        .field("missingVerdicts", verdicts.missing)
        .field("unexpectedVerdicts", verdicts.unexpected)
        .field("badReplies", bad_replies)
        .field("structureErrors", structure)
        .field("lostRequests", lost)
        .field("errorRate",
               window.attempted
                   ? static_cast<double>(failed) /
                         static_cast<double>(window.attempted)
                   : 0.0)
        .endObject();
    return verdicts;
}

/** Counter deltas over the measured window. */
struct GcDelta {
    uint64_t collections = 0;
    uint64_t totalNanos = 0;
    uint64_t ownershipNanos = 0;
    uint64_t markNanos = 0;
    uint64_t finishNanos = 0;
    uint64_t sweepNanos = 0;
    uint64_t objectsMarked = 0;
    uint64_t steals = 0;
    uint64_t owneeChecks = 0;
    uint64_t bytesSwept = 0;

    static GcDelta
    between(const GcStats &a, const GcStats &b)
    {
        GcDelta d;
        d.collections = b.collections - a.collections;
        d.totalNanos = b.totalGc.elapsedNanos() - a.totalGc.elapsedNanos();
        d.ownershipNanos = b.ownershipPhase.elapsedNanos() -
                           a.ownershipPhase.elapsedNanos();
        d.markNanos =
            b.tracePhase.elapsedNanos() - a.tracePhase.elapsedNanos();
        d.finishNanos =
            b.finishPhase.elapsedNanos() - a.finishPhase.elapsedNanos();
        d.sweepNanos =
            b.sweepPhase.elapsedNanos() - a.sweepPhase.elapsedNanos();
        d.objectsMarked = b.objectsMarked - a.objectsMarked;
        d.steals = b.markSteals - a.markSteals;
        d.owneeChecks = b.owneeChecks - a.owneeChecks;
        d.bytesSwept = b.bytesSwept - a.bytesSwept;
        return d;
    }

    /** @p total per collection, scaled by @p scale. */
    double
    perGc(uint64_t total, double scale = 1.0) const
    {
        return collections ? static_cast<double>(total) * scale /
                                 static_cast<double>(collections)
                           : 0.0;
    }
};

/** The untraced run: end-to-end metrics. */
void
endToEnd(const WorkloadSpec &spec, const Options &opt, Metrics &metrics,
         RunTally &tally)
{
    size_t slices = opt.requests ? 1 : kSlices;
    std::vector<SliceRecord> records = makeRecords(spec, opt.seed, slices);

    std::vector<double> setups;
    std::unique_ptr<Instance> inst;
    for (int i = 0; i < kSetupRepeats; ++i) {
        inst.reset();
        uint64_t t0 = nowNanos();
        inst = makeInstance(spec, opt.seed, "");
        setups.push_back(static_cast<double>(nowNanos() - t0) / 1e9);
    }

    double measured_s = opt.seconds * (1 - kWarmupShare);
    if (!opt.requests) {
        std::vector<SliceRecord> none;
        runClients(*inst, opt.seconds * kWarmupShare, 0, none);
    }
    GcStats before = inst->runtime->gcStats();
    Window window = runClients(*inst, measured_s, opt.requests, records);
    GcDelta gc = GcDelta::between(before, inst->runtime->gcStats());

    double slice_s = opt.requests ? static_cast<double>(window.nanos) / 1e9
                                  : measured_s / static_cast<double>(slices);
    std::vector<double> tput, p50, p99, p999;
    uint64_t sample_count = 0;
    for (size_t i = 0; i < slices; ++i) {
        uint64_t completed = 0;
        std::vector<uint32_t> samples;
        for (const SliceRecord &record : records) {
            completed += record.completed[i];
            record.latency[i].appendTo(samples);
        }
        if (samples.empty())
            continue;
        std::sort(samples.begin(), samples.end());
        sample_count += samples.size();
        tput.push_back(static_cast<double>(completed) / slice_s);
        p50.push_back(percentileUs(samples, 50));
        p99.push_back(percentileUs(samples, 99));
        p999.push_back(percentileUs(samples, 99.9));
    }

    metrics.add("setup_s", median(setups), "s");
    metrics.add("throughput_ops_s", median(tput), "1/s");
    metrics.add("gc_time_pct",
                100.0 * static_cast<double>(gc.totalNanos) /
                    static_cast<double>(window.nanos),
                "%");
    metrics.add("peak_rss_mb", peakRssMb(), "MB");

    checkRun(*inst, window, tally, "untraced");
    // Reported, not gated: see "Dropped" in README.md.
    tally.summary.key("latencyUs")
        .beginObject()
        .field("p50", median(p50))
        .field("p99", median(p99))
        .field("p999", median(p999))
        .endObject()
        .field("gcPauseMeanMs", gc.perGc(gc.totalNanos, 1e-6))
        .field("slices", uint64_t{slices})
        .field("latencySamples", sample_count)
        .field("gcCollections", gc.collections);
}

/** Requests per second over the whole of @p window. */
double
throughput(const Window &window)
{
    return static_cast<double>(window.completed) /
           (static_cast<double>(window.nanos) / 1e9);
}

/**
 * The traced run: per-layer metrics. The window is split in two
 * halves, untraced then traced, so a traced invocation takes as long
 * as an untraced one.
 */
void
perLayer(const WorkloadSpec &spec, const Options &opt, Metrics &metrics,
         RunTally &tally)
{
    double half = opt.seconds / 2;

    // Untraced baseline, for the overhead figure.
    double untraced_tput = 0;
    std::vector<SliceRecord> none;
    {
        std::unique_ptr<Instance> inst = makeInstance(spec, opt.seed, "");
        Window window = runClients(*inst, half, opt.requests, none);
        untraced_tput = throughput(window);
        checkRun(*inst, window, tally, "untraced");
    }

    mkdir(".bench_out", 0777);
    std::string trace_file = std::string(".bench_out/") + spec.name + "-" +
                             std::to_string(opt.seed) + ".trace.json";
    std::unique_ptr<Instance> inst =
        makeInstance(spec, opt.seed, trace_file);
    Runtime &rt = *inst->runtime;
    Telemetry &telemetry = *rt.telemetry();
    const AssertCostAttribution &cost = telemetry.assertCost();
    auto markCost = [&](AssertCostKind k) { return cost.markNanos(k); };
    auto finishCost = [&](AssertCostKind k) { return cost.finishNanos(k); };
    uint64_t alldead0 = finishCost(AssertCostKind::AllDead);
    uint64_t ownedMark0 = markCost(AssertCostKind::OwnedBy);
    uint64_t ownedFinish0 = finishCost(AssertCostKind::OwnedBy);
    uint64_t instances0 = finishCost(AssertCostKind::Instances);
    uint64_t pauses0 = telemetry.pauseSlo().full().count();

    GcStats before = rt.gcStats();
    Window window = runClients(*inst, half, opt.requests, none);
    GcDelta gc = GcDelta::between(before, rt.gcStats());
    uint64_t live_bytes = rt.gcStats().lastLiveBytes;
    PauseHistogram pauses = telemetry.pauseSlo().full();
    uint64_t alldead = finishCost(AssertCostKind::AllDead) - alldead0;
    uint64_t owned_mark = markCost(AssertCostKind::OwnedBy) - ownedMark0;
    uint64_t owned_finish =
        finishCost(AssertCostKind::OwnedBy) - ownedFinish0;
    uint64_t instances = finishCost(AssertCostKind::Instances) - instances0;
    double traced_tput = throughput(window);

    std::array<CallTally, kNumCalls> calls;
    uint64_t self_nanos = 0;
    uint64_t sampled = 0;
    for (const Client &client : inst->clients) {
        for (size_t i = 0; i < kNumCalls; ++i)
            calls[i].merge(client.probe.tallies()[i]);
        self_nanos += client.probe.selfNanos();
        sampled += client.probe.sampledRequests();
    }
    const CallTally &owned_calls =
        inst->setupProbe.tallies()[static_cast<size_t>(Call::AssertOwnedBy)];
    auto callTally = [&](Call c) -> const CallTally & {
        return calls[static_cast<size_t>(c)];
    };
    auto ms = [](uint64_t nanos) { return static_cast<double>(nanos) / 1e6; };
    auto callMetrics = [&](Call c, bool p99) {
        std::string name = callName(c);
        metrics.add(name + ".calls", static_cast<double>(callTally(c).calls),
                    "count");
        metrics.add(name + ".busy_ms", ms(callTally(c).busyNanos), "ms");
        if (p99)
            metrics.add(name + ".p99_ns",
                        static_cast<double>(
                            callTally(c).latency.percentile(99.0)),
                        "ns");
    };

    callMetrics(Call::Alloc, true);
    callMetrics(Call::WriteRef, true);
    metrics.add("runtime.drop_roots.busy_ms",
                ms(callTally(Call::DropRoots).busyNanos), "ms");
    callMetrics(Call::AllocGc, false);
    callMetrics(Call::StartRegion, true);
    callMetrics(Call::AssertAllDead, true);

    uint64_t leaks = 0;
    for (const Client &client : inst->clients)
        leaks += client.leaks;
    VerdictCheck verdicts = checkRun(*inst, window, tally, "traced");

    metrics.add("assertions.finish.alldead_ms_per_gc",
                gc.perGc(alldead, 1e-6), "ms");
    metrics.add("assertions.violations",
                static_cast<double>(verdicts.allDeadVerdicts), "count");
    metrics.add("assertions.assert_ownedby.calls",
                static_cast<double>(owned_calls.calls), "count");
    metrics.add("assertions.assert_ownedby.busy_ms",
                ms(owned_calls.busyNanos), "ms");
    metrics.add("assertions.mark.ownedby_ms_per_gc",
                gc.perGc(owned_mark, 1e-6), "ms");
    metrics.add("assertions.finish.ownedby_ms_per_gc",
                gc.perGc(owned_finish, 1e-6), "ms");
    metrics.add("assertions.finish.instances_ms_per_gc",
                gc.perGc(instances, 1e-6), "ms");

    metrics.add("gc.full.count", static_cast<double>(gc.collections),
                "count");
    metrics.add("gc.pause.p50_ms",
                static_cast<double>(pauses.percentile(50.0)) / 1e6, "ms");
    metrics.add("gc.pause.p90_ms",
                static_cast<double>(pauses.percentile(90.0)) / 1e6, "ms");
    metrics.add("gc.ownership_scan.ms_per_gc",
                gc.perGc(gc.ownershipNanos, 1e-6), "ms");
    metrics.add("gc.mark.ms_per_gc", gc.perGc(gc.markNanos, 1e-6), "ms");
    metrics.add("gc.finish.ms_per_gc", gc.perGc(gc.finishNanos, 1e-6),
                "ms");
    metrics.add("gc.sweep.ms_per_gc", gc.perGc(gc.sweepNanos, 1e-6), "ms");
    metrics.add("gc.mark.objects_per_gc", gc.perGc(gc.objectsMarked),
                "count");
    metrics.add("gc.mark.steals_per_gc", gc.perGc(gc.steals), "count");
    metrics.add("gc.ownee_checks_per_gc", gc.perGc(gc.owneeChecks),
                "count");

    metrics.add("heap.live_bytes", static_cast<double>(live_bytes),
                "bytes");
    metrics.add("heap.swept_bytes_per_gc", gc.perGc(gc.bytesSwept),
                "bytes");

    metrics.add("client.shared_wait_ms",
                ms(callTally(Call::SharedWait).busyNanos), "ms");
    metrics.add("client.self_ms", ms(self_nanos), "ms");
    metrics.add("client.leaks_injected", static_cast<double>(leaks),
                "count");
    metrics.add("trace_overhead_pct",
                untraced_tput > 0
                    ? 100.0 * (untraced_tput - traced_tput) / untraced_tput
                    : 0.0,
                "%");

    tally.summary.field("traceFile", trace_file)
        .field("sampledRequests", sampled)
        .field("tracedPauses", pauses.count() - pauses0)
        .field("gcCollections", gc.collections);
}

int
run(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const WorkloadSpec *spec = findWorkload(opt.workload);
    if (!spec)
        usage("unknown workload '" + opt.workload + "'");

    // GCASSERT_* knobs seed RuntimeConfig defaults (and CI legs set
    // them); pinnedConfig overrides the fields it knows, but a knob
    // added later would silently change the measured program.
    for (char **env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "GCASSERT_", 9) == 0) {
            std::fprintf(stderr,
                         "gcbench: refusing to run with %s set; unset "
                         "every GCASSERT_* variable\n",
                         *env);
            return 2;
        }
    }
    uint32_t cpus = static_cast<uint32_t>(allowedCpus().size());
    if (spec->threads > cpus) {
        std::fprintf(stderr,
                     "gcbench: %s needs %u client threads but only %u "
                     "CPUs are available\n",
                     spec->name, spec->threads, cpus);
        return 2;
    }

    CountingSink sink;
    LogSink *previous = setLogSink(&sink);

    Metrics metrics;
    RunTally tally;
    tally.summary.beginObject();
    if (opt.trace == 0)
        endToEnd(*spec, opt, metrics, tally);
    else
        perLayer(*spec, opt, metrics, tally);
    tally.summary.field("logRecords", sink.records()).endObject();
    setLogSink(previous);

    JsonWriter stamp;
    stamp.beginObject()
        .key("stamp")
        .beginObject()
        .field("commit", opt.commit)
        .field("sourceDigest", opt.sourceDigest)
        .field("buildType", GCBENCH_BUILD_TYPE)
        .field("nproc", cpus)
        .field("workload", spec->name)
        .field("seed", opt.seed)
        .field("seconds", opt.seconds)
        .field("requestsPerClient", opt.requests)
        .field("trace", opt.trace)
        .field("clients", spec->threads)
        .key("config")
        .valueRaw(configJson(pinnedConfig(*spec, "")))
        .endObject()
        .endObject();
    std::printf("%s\n", stamp.str().c_str());
    std::printf("{\"summary\":%s}\n", tally.summary.str().c_str());

    for (const auto &[name, value] : metrics.items)
        std::fprintf(stderr, "  %-40s %16.6f %s\n", name.c_str(),
                     value.first, value.second.c_str());

    JsonWriter result;
    result.beginObject()
        .field("correct", tally.correct)
        .field("attempted", tally.attempted)
        .field("failed", tally.failed)
        .key("metrics")
        .beginObject();
    for (const auto &[name, value] : metrics.items)
        result.key(name)
            .beginObject()
            .field("value", value.first)
            .field("unit", value.second)
            .endObject();
    result.endObject().endObject();
    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace
} // namespace gcbench

int
main(int argc, char **argv)
{
    return gcbench::run(argc, argv);
}
