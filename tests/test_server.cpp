/**
 * @file
 * Tests for the server workload: per-request assert-alldead regions
 * under real concurrent traffic, injected-leak detection with
 * request attribution, clean runs across the knob matrix, shutdown
 * drain, and the request metrics surface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "heap/verifier.h"
#include "runtime/runtime.h"
#include "support/logging.h"
#include "workloads/server.h"

namespace gcassert {
namespace {

RuntimeConfig
infraFor(const Workload &workload)
{
    return RuntimeConfig::infra(2 * workload.minHeapBytes());
}

uint64_t
allDeadCount(const Runtime &rt)
{
    uint64_t n = 0;
    for (const Violation &v : rt.violations())
        if (v.kind == AssertionKind::AllDead)
            ++n;
    return n;
}

/** Violations excluding context-only reports — a CI leg may arm a
 *  global pause budget or the backgraph, whose reports are not
 *  assertion verdicts. */
uint64_t
verdictCount(const Runtime &rt)
{
    uint64_t n = 0;
    for (const Violation &v : rt.violations())
        if (!assertionKindContextOnly(v.kind))
            ++n;
    return n;
}

const Violation *
firstAllDead(const Runtime &rt)
{
    for (const Violation &v : rt.violations())
        if (v.kind == AssertionKind::AllDead)
            return &v;
    return nullptr;
}

TEST(Server, CleanArmedRunHasZeroViolations)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 4;
    options.requestsPerThread = 1000;
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    server->enableAssertions(rt);
    server->iterate(rt);
    rt.collect();
    EXPECT_EQ(server->requestsCompleted(), 4u * 1000u);
    EXPECT_EQ(verdictCount(rt), 0u);
    EXPECT_EQ(server->leaksInjected(), 0u);
    server->teardown(rt);
}

TEST(Server, InjectedLeaksAreCaughtByTheNextGc)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 4;
    options.requestsPerThread = 500;
    options.leakEveryN = 100;
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    server->enableAssertions(rt);
    server->iterate(rt);
    rt.collect();

    // Every injected leak — and nothing else — must surface as an
    // alldead violation by the collection after the injection.
    EXPECT_GT(server->leaksInjected(), 0u);
    EXPECT_EQ(allDeadCount(rt), server->leaksInjected());
    EXPECT_EQ(verdictCount(rt), server->leaksInjected());

    // ... and each violation names the leaking request's region.
    std::vector<std::string> labels = server->leakedLabels();
    EXPECT_EQ(labels.size(), server->leaksInjected());
    for (const std::string &label : labels) {
        bool named = false;
        for (const Violation &v : rt.violations())
            if (v.message.find("'" + label + "'") != std::string::npos) {
                named = true;
                break;
            }
        EXPECT_TRUE(named) << "no violation names region " << label;
    }
    server->teardown(rt);
}

TEST(Server, DisarmedRunReportsNothingEvenWithLeaks)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 2;
    options.requestsPerThread = 400;
    options.leakEveryN = 50;
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    // No enableAssertions(): leaks still happen, no regions armed.
    server->iterate(rt);
    rt.collect();
    EXPECT_GT(server->leaksInjected(), 0u);
    EXPECT_EQ(verdictCount(rt), 0u);
    server->teardown(rt);
}

TEST(Server, CleanRunZeroViolationsAcrossKnobCombos)
{
    CaptureLogSink capture;
    struct Combo {
        const char *name;
        void (*apply)(RuntimeConfig &);
    };
    const Combo combos[] = {
        {"baseline", [](RuntimeConfig &) {}},
        {"generational",
         [](RuntimeConfig &c) {
             c.generational = true;
             c.nurseryKb = 64;
         }},
        {"incremental",
         [](RuntimeConfig &c) { c.incrementalAssert = true; }},
        {"parallel",
         [](RuntimeConfig &c) {
             c.markThreads = 4;
             c.sweepThreads = 2;
             c.recordPaths = false;
         }},
        {"tlab+lazy",
         [](RuntimeConfig &c) {
             c.tlab = true;
             c.lazySweep = true;
         }},
        {"all-on",
         [](RuntimeConfig &c) {
             c.generational = true;
             c.nurseryKb = 64;
             c.incrementalAssert = true;
             c.markThreads = 4;
             c.sweepThreads = 2;
             c.recordPaths = false;
             c.tlab = true;
             c.lazySweep = true;
         }},
    };
    for (const Combo &combo : combos) {
        ServerOptions options;
        options.threads = 3;
        options.requestsPerThread = 400;
        auto server = makeServerWithOptions(options);
        RuntimeConfig config = infraFor(*server);
        combo.apply(config);
        Runtime rt(config);
        server->setup(rt);
        server->enableAssertions(rt);
        server->iterate(rt);
        rt.collect();
        EXPECT_EQ(server->requestsCompleted(), 3u * 400u)
            << "combo " << combo.name;
        EXPECT_EQ(verdictCount(rt), 0u) << "combo " << combo.name;
        server->teardown(rt);
    }
}

TEST(Server, LeakDetectionIsExactUnderConcurrentStressKnobs)
{
    // The concurrent-mutators stress shape: parallel marking and
    // sweeping, TLABs and lazy sweep all on while four threads churn
    // — with leaks injected, detection must still be exact.
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 4;
    options.requestsPerThread = 600;
    options.leakEveryN = 150;
    auto server = makeServerWithOptions(options);
    RuntimeConfig config = infraFor(*server);
    config.markThreads = 4;
    config.sweepThreads = 2;
    config.recordPaths = false;
    config.tlab = true;
    config.lazySweep = true;
    Runtime rt(config);
    server->setup(rt);
    server->enableAssertions(rt);
    server->iterate(rt);
    rt.collect();
    EXPECT_GT(server->leaksInjected(), 0u);
    EXPECT_EQ(allDeadCount(rt), server->leaksInjected());
    server->teardown(rt);
}

TEST(Server, ShutdownDrainJoinsInFlightRequestsCleanly)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 4;
    options.requestsPerThread = 1000000; // would run ~forever
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    server->enableAssertions(rt);

    std::thread driver([&] { server->iterate(rt); });
    while (server->requestsCompleted() < 1000)
        std::this_thread::yield();
    server->requestStop();
    driver.join();

    // Drained: every in-flight request finished and closed its
    // region; nothing ran to completion.
    EXPECT_GE(server->requestsCompleted(), 1000u);
    EXPECT_LT(server->requestsCompleted(), 4ull * 1000000ull);
    EXPECT_FALSE(rt.mainMutatorInRegionOrAny());
    rt.collect();
    EXPECT_EQ(verdictCount(rt), 0u);
    server->clearStop();
    server->teardown(rt);
}

TEST(Server, RegionLabelNamesTheRequestInTheViolation)
{
    // Direct unit for the labeled-region mechanism the server rides
    // on: a labeled region whose object escapes must produce an
    // alldead violation quoting the label.
    CaptureLogSink capture;
    RuntimeConfig config = RuntimeConfig::infra(8 * 1024 * 1024);
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle keeper(rt, rt.allocRaw(node), "keeper");

    rt.startRegion(nullptr, "req-test-7");
    Object *escapee = rt.allocRaw(node);
    Handle pin(rt, escapee, "pin");
    rt.writeRef(keeper.get(), 0, escapee);
    pin.reset();
    rt.assertAllDead();
    rt.collect();

    ASSERT_EQ(verdictCount(rt), 1u);
    const Violation *v = firstAllDead(rt);
    ASSERT_NE(v, nullptr);
    EXPECT_NE(v->message.find("'req-test-7'"), std::string::npos)
        << v->message;
}

TEST(Server, UnlabeledRegionMessageIsUnchanged)
{
    // The label is strictly additive: an unlabeled region violation
    // must keep the historical message (differential suites compare
    // messages byte-for-byte across configurations).
    CaptureLogSink capture;
    Runtime rt(RuntimeConfig::infra(8 * 1024 * 1024));
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle keeper(rt, rt.allocRaw(node), "keeper");

    rt.startRegion();
    Object *escapee = rt.allocRaw(node);
    Handle pin(rt, escapee, "pin");
    rt.writeRef(keeper.get(), 0, escapee);
    pin.reset();
    rt.assertAllDead();
    rt.collect();

    ASSERT_EQ(verdictCount(rt), 1u);
    const Violation *v = firstAllDead(rt);
    ASSERT_NE(v, nullptr);
    EXPECT_NE(v->message.find("an object allocated in an "
                              "assert-alldead region is reachable"),
              std::string::npos)
        << v->message;
}

/** Messages of every alldead verdict, in report order. */
std::vector<std::string>
allDeadMessages(const Runtime &rt)
{
    std::vector<std::string> out;
    for (const Violation &v : rt.violations())
        if (v.kind == AssertionKind::AllDead)
            out.push_back(v.message);
    return out;
}

std::string
labeledMessage(const std::string &label)
{
    return "an object allocated in assert-alldead region '" + label +
           "' is reachable.";
}

const char *const kUnlabeledMessage =
    "an object allocated in an assert-alldead region is reachable.";

TEST(Server, StaleLabelDoesNotSurviveAMinorGc)
{
    // A minor GC frees a flushed object of a labeled region, and an
    // unlabeled region's object later lands on the same cell. Its
    // leak must be reported without the dead object's label: the
    // label lives in the header tag, which reformatting the reused
    // cell clears. (An address-keyed label map kept the old entry
    // and named 'labeled-req-1' here.)
    CaptureLogSink capture;
    RuntimeConfig config = RuntimeConfig::infra(8 * 1024 * 1024);
    config.generational = true;
    config.nurseryKb = 256;
    config.tlab = false;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle keeper(rt, rt.allocRaw(node), "keeper");

    rt.startRegion(nullptr, "labeled-req-1");
    Object *dead = rt.allocRaw(node);
    rt.assertAllDead();
    rt.collectMinor();
    ASSERT_FALSE(rt.heap().contains(dead))
        << "the minor GC must free the flushed object";

    rt.startRegion();
    Object *reused = nullptr;
    for (int i = 0; i < 4096 && reused == nullptr; ++i) {
        Object *obj = rt.allocRaw(node);
        if (obj == dead)
            reused = obj;
    }
    ASSERT_NE(reused, nullptr) << "no allocation reused the freed cell";
    rt.writeRef(keeper.get(), 0, reused);
    rt.assertAllDead();
    rt.collect();

    ASSERT_EQ(verdictCount(rt), 1u);
    EXPECT_EQ(allDeadMessages(rt),
              std::vector<std::string>{kUnlabeledMessage});
}

TEST(Server, RegionLabelSurvivesAnOwnedByOnTheSameObject)
{
    // The header tag field holds either an owner tag or a region
    // label tag. An object that is both an ownee and a labeled
    // region object keeps its label in the fallback map, whichever
    // assertion came first, and its owner tag keeps working.
    for (bool region_first : {true, false}) {
        SCOPED_TRACE(region_first ? "region first" : "ownee first");
        CaptureLogSink capture;
        Runtime rt(RuntimeConfig::infra(8 * 1024 * 1024));
        TypeId node = rt.types().define("Node").refs({"next"}).build();
        Handle owner(rt, rt.allocRaw(node), "owner");
        // Takes label slot 1, so the label of interest (slot 2)
        // differs from the owner tag (1).
        rt.startRegion(nullptr, "req-first");
        rt.allocRaw(node);
        rt.assertAllDead();

        rt.startRegion(nullptr, "req-owned");
        Object *obj = rt.allocRaw(node);
        rt.writeRef(owner.get(), 0, obj);
        if (region_first) {
            rt.assertAllDead();
            rt.assertOwnedBy(owner.get(), obj);
        } else {
            rt.assertOwnedBy(owner.get(), obj);
            rt.assertAllDead();
        }
        EXPECT_EQ(obj->ownerTag(),
                  rt.engine().ownership().ownerTagOf(owner.get()));
        rt.collect();

        ASSERT_EQ(verdictCount(rt), 1u);
        EXPECT_EQ(allDeadMessages(rt),
                  std::vector<std::string>{labeledMessage("req-owned")});
        EXPECT_TRUE(HeapVerifier(rt).verify().empty());
    }
}

TEST(Server, StickyReReportCarriesNoLabel)
{
    // Sticky dead assertions re-report a survivor at every GC. Only
    // the first report names the region: the label table belongs to
    // the cycle the region was flushed in.
    CaptureLogSink capture;
    RuntimeConfig config = RuntimeConfig::infra(8 * 1024 * 1024);
    config.engine.stickyDeadAssertions = true;
    Runtime rt(config);
    TypeId node = rt.types().define("Node").refs({"next"}).build();
    Handle keeper(rt, rt.allocRaw(node), "keeper");

    rt.startRegion(nullptr, "req-sticky");
    rt.writeRef(keeper.get(), 0, rt.allocRaw(node));
    rt.assertAllDead();
    rt.collect();
    // A later labeled region reuses table slot 1 in the new cycle.
    rt.startRegion(nullptr, "req-later");
    rt.allocRaw(node);
    rt.assertAllDead();
    rt.collect();

    EXPECT_EQ(allDeadMessages(rt),
              (std::vector<std::string>{labeledMessage("req-sticky"),
                                        kUnlabeledMessage}));
    EXPECT_TRUE(HeapVerifier(rt).verify().empty());
}

TEST(Server, RevivedFinalizableLosesItsLabel)
{
    // An unreachable flushed object with a finalizer is revived by
    // the collector without a verdict. If its finalizer resurrects
    // it, the next GC reports it like any survivor of an earlier
    // cycle: without a label, and in particular not with the label
    // of a region flushed in the new cycle.
    CaptureLogSink capture;
    Runtime rt(RuntimeConfig::infra(8 * 1024 * 1024));
    TypeId node =
        rt.types().define("Node").refs({"next"}).scalars(8).build();
    Handle keeper(rt, rt.allocRaw(node), "keeper");

    rt.startRegion(nullptr, "req-finalized");
    Object *obj = rt.allocRaw(node);
    rt.setFinalizer(obj, [&](Object *self) {
        rt.writeRef(keeper.get(), 0, self);
    });
    rt.assertAllDead();
    rt.collect();
    EXPECT_EQ(verdictCount(rt), 0u);

    rt.startRegion(nullptr, "req-other");
    rt.allocRaw(node);
    rt.assertAllDead();
    rt.collect();
    EXPECT_EQ(allDeadMessages(rt),
              std::vector<std::string>{kUnlabeledMessage});
}

TEST(Server, ParallelMarkNamesTheSameRegions)
{
    // Parallel markers read the label tag from their flag-word
    // snapshot; the report text must match sequential marking.
    auto run = [](uint32_t mark_threads) {
        CaptureLogSink capture;
        RuntimeConfig config = RuntimeConfig::infra(8 * 1024 * 1024);
        config.recordPaths = false;
        config.markThreads = mark_threads;
        Runtime rt(config);
        TypeId node = rt.types().define("Node").refs({"next"}).build();
        Handle keeper(rt, rt.allocRaw(node), "keeper");
        Object *tail = keeper.get();
        for (int r = 0; r < 64; ++r) {
            if (r % 3 == 0)
                rt.startRegion();
            else
                rt.startRegion(nullptr, "req-" + std::to_string(r));
            for (int i = 0; i < 8; ++i) {
                Object *obj = rt.allocRaw(node);
                if (i == r % 8 && r % 2 == 0) {
                    rt.writeRef(tail, 0, obj);
                    tail = obj;
                }
            }
            rt.assertAllDead();
        }
        rt.collect();
        std::vector<std::string> messages = allDeadMessages(rt);
        std::sort(messages.begin(), messages.end());
        return messages;
    };
    std::vector<std::string> sequential = run(1);
    EXPECT_EQ(sequential.size(), 32u);
    EXPECT_EQ(std::count(sequential.begin(), sequential.end(),
                         labeledMessage("req-2")),
              1);
    EXPECT_EQ(run(4), sequential);
}

TEST(Server, RegionsPastTheTagFieldUseTheFallbackMap)
{
    // One GC cycle with more labeled regions than the tag field can
    // index: the overflow regions keep their labels in the fallback
    // map. Leak one object from each side of the boundary. The
    // nursery keeps the heap small (the scratch dies in minor GCs,
    // which leave the label table alone), and lets a minor GC free
    // one more overflow object whose cell an unlabeled region then
    // reuses: that leak must not inherit the fallback entry.
    CaptureLogSink capture;
    RuntimeConfig config = RuntimeConfig::infra(64 * 1024 * 1024);
    config.generational = true;
    config.nurseryKb = 256;
    config.tlab = false;
    Runtime rt(config);
    TypeId leaf = rt.types().define("Leaf").build();
    TypeId holder =
        rt.types().define("Holder").refs({"a", "b", "c"}).build();
    Handle keeper(rt, rt.allocRaw(holder), "keeper");

    const uint32_t regions = kMaxOwnerTag + 2;
    for (uint32_t r = 1; r <= regions; ++r) {
        rt.startRegion(nullptr, "r" + std::to_string(r));
        Object *obj = rt.allocRaw(leaf);
        if (r == kMaxOwnerTag)
            rt.writeRef(keeper.get(), 0, obj);
        if (r == regions)
            rt.writeRef(keeper.get(), 1, obj);
        rt.assertAllDead();
    }

    rt.startRegion(nullptr, "r-dead");
    Object *dead = rt.allocRaw(leaf);
    rt.assertAllDead();
    rt.collectMinor();
    ASSERT_FALSE(rt.heap().contains(dead));
    rt.startRegion();
    Object *reused = nullptr;
    for (int i = 0; i < 4096 && reused == nullptr; ++i) {
        Object *obj = rt.allocRaw(leaf);
        if (obj == dead)
            reused = obj;
    }
    ASSERT_NE(reused, nullptr) << "no allocation reused the freed cell";
    rt.writeRef(keeper.get(), 2, reused);
    rt.assertAllDead();
    ASSERT_EQ(rt.gcStats().collections, 0u)
        << "a full GC before this point would reset the label table";
    EXPECT_GT(rt.gcStats().minorCollections, 0u);
    rt.collect();

    std::vector<std::string> messages = allDeadMessages(rt);
    std::sort(messages.begin(), messages.end());
    std::vector<std::string> expected = {
        labeledMessage("r" + std::to_string(kMaxOwnerTag)),
        labeledMessage("r" + std::to_string(regions)),
        kUnlabeledMessage};
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(messages, expected);
}

TEST(Server, RequestMetricsGaugesAreRegistered)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 2;
    options.requestsPerThread = 300;
    auto server = makeServerWithOptions(options);
    RuntimeConfig config = infraFor(*server);
    config.observe.censusEvery = 1; // any observe knob arms telemetry
    Runtime rt(config);
    ASSERT_NE(rt.telemetry(), nullptr);
    server->setup(rt);
    server->enableAssertions(rt);
    server->iterate(rt);

    uint64_t completed = 0, per_sec_seen = 0, p50 = 0;
    bool have_completed = false, have_per_sec = false, have_p50 = false;
    for (const MetricSample &sample :
         rt.telemetry()->metrics().snapshot()) {
        if (sample.name == "server.requests.completed") {
            have_completed = true;
            completed = sample.value;
        } else if (sample.name == "server.requests.per_sec") {
            have_per_sec = true;
            per_sec_seen = sample.value;
        } else if (sample.name == "server.request.latency.p50_nanos") {
            have_p50 = true;
            p50 = sample.value;
        }
    }
    EXPECT_TRUE(have_completed);
    EXPECT_TRUE(have_per_sec);
    EXPECT_TRUE(have_p50);
    EXPECT_EQ(completed, 2u * 300u);
    EXPECT_GT(per_sec_seen, 0u);
    EXPECT_GT(p50, 0u);

    PauseHistogram latency = server->latencySnapshot();
    EXPECT_EQ(latency.count(), 2u * 300u);
    EXPECT_GT(server->busySeconds(), 0.0);
    server->teardown(rt);
}

TEST(Server, WorkUnitsTrackRequests)
{
    CaptureLogSink capture;
    ServerOptions options;
    options.threads = 2;
    options.requestsPerThread = 200;
    auto server = makeServerWithOptions(options);
    Runtime rt(infraFor(*server));
    server->setup(rt);
    server->iterate(rt);
    EXPECT_EQ(server->workUnitsCompleted(), server->requestsCompleted());
    EXPECT_EQ(server->workUnitsCompleted(), 2u * 200u);
    server->teardown(rt);
}

} // namespace
} // namespace gcassert
