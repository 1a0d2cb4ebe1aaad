/**
 * @file
 * Unified run layer tests: RunRecord status/derived metrics, runOne()
 * equivalence with the hand-rolled experiment loops the ported benches
 * (table1_events, fig5_signal_cost, ablation_serialization,
 * ablation_pageprobe) used before the scenario specs existed, the
 * sweep's workload store, `--jobs` byte-identity with serial runs,
 * [report] assert evaluation, the
 * [table] renderer and the shared grid emitter, and the `param.<key>`
 * per-workload knobs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "harness/run_record.hh"
#include "point_fixtures.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

using namespace misp;
using namespace misp::driver;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuietLogging(true); }
};

const ::testing::Environment *const kQuietEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

Scenario
mustScenario(const std::string &text)
{
    SpecFile spec;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(text, "<test>", &spec, &err)) << err;
    EXPECT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    return sc;
}

/** The diagnostic Scenario::fromSpec gives for @p text, which must
 *  parse as a spec and fail to load. */
std::string
loadError(const std::string &text)
{
    SpecFile spec;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(text, "<test>", &spec, &err)) << err;
    EXPECT_FALSE(Scenario::fromSpec(spec, &sc, &err)) << text;
    return err;
}

std::vector<PointResult>
runScenarioText(const std::string &text, unsigned jobs = 1)
{
    Scenario sc = mustScenario(text);
    std::vector<ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    ScenarioRunner::Options opts;
    opts.hostLines = false;
    opts.jobs = jobs;
    return ScenarioRunner(opts).runAll(sc, pts);
}

/** The pre-port runWorkload() loop every hand-rolled bench shared:
 *  build, load unpinned, run to completion, validate, snapshot. */
struct HandRolledRun {
    Tick ticks = 0;
    bool valid = false;
    harness::EventCounts events{};
};

HandRolledRun
handRolledRunWorkload(const arch::SystemConfig &sys, rt::Backend backend,
                      const std::string &name,
                      const wl::WorkloadParams &params)
{
    const wl::WorkloadInfo *info = wl::findWorkload(name);
    EXPECT_NE(info, nullptr) << name;
    wl::Workload w = info->build(params);
    harness::Experiment exp(sys, backend);
    harness::LoadedProcess proc = exp.load(w.app);
    HandRolledRun out;
    out.ticks = exp.runToCompletion(proc.process).ticks;
    out.valid = !w.validate || w.validate(proc.process->addressSpace());
    // Read the processor directly, not through the counter table, so
    // this stays an independent check of snapshotEvents().
    using arch::Ring0Cause;
    using EC = harness::EventCounter;
    arch::MispProcessor &mp = exp.system().processor(0);
    harness::EventCounts &e = out.events;
    e[EC::OmsSyscalls] = double(mp.eventCount(Ring0Cause::OmsSyscall));
    e[EC::OmsPageFaults] =
        double(mp.eventCount(Ring0Cause::OmsPageFault));
    e[EC::Timer] = double(mp.eventCount(Ring0Cause::Timer));
    e[EC::Interrupts] = double(mp.eventCount(Ring0Cause::OtherInterrupt));
    e[EC::AmsSyscalls] = double(mp.eventCount(Ring0Cause::ProxySyscall));
    e[EC::AmsPageFaults] =
        double(mp.eventCount(Ring0Cause::ProxyPageFault));
    e[EC::Serializations] = double(mp.serializations());
    e[EC::SerializeCycles] = mp.statGroup().lookupValue("serializeCycles");
    e[EC::PrivCycles] = mp.statGroup().lookupValue("privCycles");
    e[EC::ProxySignalCycles] =
        mp.statGroup().lookupValue("proxySignalCycles");
    e[EC::ProxyRequests] = mp.statGroup().lookupValue("proxyRequests");
    for (unsigned i = 0; i < mp.numAms(); ++i)
        e[EC::SuspendedCycles] += double(mp.amsAt(i).suspendedCycles());
    return out;
}

/** The evaluator reads results through the sweep's MetricFrame; the
 *  tests build it the way mispsim does. */
bool
evalAsserts(const Scenario &sc, const std::vector<PointResult> &results,
            std::vector<AssertFailure> *failures, std::string *err)
{
    return evaluateAsserts(sc, buildMetricFrame(sc, results), failures,
                           err);
}

/** A synthetic completed record for emitter/assert tests. */
harness::RunRecord
fakeRun(Tick ticks, std::uint64_t insts)
{
    harness::RunRecord r;
    r.status = harness::RunStatus::Completed;
    r.ticks = ticks;
    r.valid = true;
    r.instsRetired = insts;
    r.events[harness::EventCounter::OmsPageFaults] = 10;
    r.events[harness::EventCounter::AmsPageFaults] = 40;
    return r;
}

/** @p sc's grid with @p runs as its points' records, in grid order. */
std::vector<PointResult>
fakeGrid(const Scenario &sc, const std::vector<harness::RunRecord> &runs)
{
    std::vector<PointResult> results = test::gridResults(sc);
    EXPECT_EQ(results.size(), runs.size());
    for (std::size_t i = 0; i < results.size() && i < runs.size(); ++i)
        results[i].run = runs[i];
    return results;
}

} // namespace

// ---------------------------------------------------------------------
// RunRecord basics
// ---------------------------------------------------------------------

TEST(RunRecord, StatusEnumReplacesAmbiguousTickZero)
{
    // A spinner never exits: the old API returned the ambiguous Tick 0,
    // the record says MaxTicksReached explicitly.
    harness::RunRequest req;
    req.label = "spin";
    req.config = arch::SystemConfig::uniprocessor(1);
    req.target = {"spinner", {}};
    req.maxTicks = 5'000'000;
    req.hostLine = false;
    harness::RunRecord rec = harness::runOne(req);
    EXPECT_EQ(rec.status, harness::RunStatus::MaxTicksReached);
    EXPECT_FALSE(rec.completed());
    EXPECT_FALSE(rec.ok());
    EXPECT_EQ(rec.ticks, 0u);
    EXPECT_GT(rec.instsRetired, 0u); // it did run, it just never exited
    EXPECT_STREQ(harness::runStatusName(rec.status), "max_ticks");

    harness::RunRequest fin = req;
    fin.target = {"dense_mvm", {}};
    fin.maxTicks = 2'000'000'000'000ull;
    harness::RunRecord done = harness::runOne(fin);
    EXPECT_EQ(done.status, harness::RunStatus::Completed);
    EXPECT_TRUE(done.ok());
    EXPECT_GT(done.ticks, 0u);
}

TEST(RunRecord, DerivedMetrics)
{
    harness::RunRecord r;
    r.status = harness::RunStatus::Completed;
    r.ticks = 100;
    r.instsRetired = 2'000'000;

    EXPECT_DOUBLE_EQ(r.megaCycles(), 1e-4);
    EXPECT_DOUBLE_EQ(harness::perMegaInsts(10, double(r.instsRetired)), 5.0);

    harness::RunRecord never;
    EXPECT_DOUBLE_EQ(harness::perMegaInsts(10, double(never.instsRetired)),
                     0.0);
}

// ---------------------------------------------------------------------
// The sweep's workload store
// ---------------------------------------------------------------------

namespace {

harness::RunRequest
storeRequest(unsigned workers, unsigned rows = 64)
{
    harness::RunRequest req;
    req.label = "store";
    req.config = arch::SystemConfig::mp({3, 0});
    req.target.name = "dense_mvm";
    req.target.params.workers = workers;
    req.target.params.extra = {{"rows", std::to_string(rows)}};
    req.hostLine = false;
    return req;
}

/** Every artifact a sweep's results render to: the -o JSON, the table
 *  and the canonical point lines. */
std::string
renderArtifacts(const Scenario &sc, const std::vector<PointResult> &results)
{
    const harness::MetricFrame frame = buildMetricFrame(sc, results);
    std::ostringstream json, table, points;
    writeJson(json, sc, false, frame, test::statsOf(results));
    writeTable(table, sc, frame, false);
    writePoints(points, frame);
    return json.str() + "\x1e" + table.str() + "\x1e" + points.str();
}

/** The ledger grid's shape, shrunk to 12 points: two machines
 *  innermost, then the workers axis, which changes at every group. */
const char *const kGridShaped =
    "[scenario]\nname = store\ntitle = Workload store\n"
    "[machine 1p]\nprocessors = 0\nbackend = os\n"
    "[machine misp]\nprocessors = 3\nbackend = shred\n"
    "[workload]\nname = dense_mvm\nparam.rows = 8\n"
    "[sweep]\nmachine.signal_cycles = 1000..1002\n"
    "workload.workers = 1..2\n";

} // namespace

TEST(RunOne, ReusedWorkloadsLeaveRecordsUnchanged)
{
    const std::string image =
        ::testing::TempDir() + "run_one_reuse.misnap";

    harness::RunRequest a = storeRequest(3);
    harness::RunRequest aMachine = a;
    aMachine.config.misp.signalCycles += 1000;
    harness::RunRequest b = storeRequest(2);
    harness::RunRequest aLoaded = a;
    aLoaded.background = {{"dense_mvm", b.target.params}};
    aLoaded.competitors = 2;
    harness::RunRequest aRestored = a;
    aRestored.snapshotIn = image;

    harness::RunRequest save = a;
    save.snapshotOut = image;
    save.warmupTicks = 200'000;
    ASSERT_TRUE(harness::runOne(save).ok());

    // One store serves the sequence, so each point after the first
    // loads workloads an earlier point built.
    const std::vector<harness::RunRequest> seq = {a, aMachine, b, aLoaded,
                                                  aRestored};
    harness::WorkloadStore store;
    for (const harness::RunRequest &req : seq)
        store.expect(req);
    std::vector<harness::RunRecord> reused;
    for (harness::RunRequest req : seq) {
        req.workloads = &store;
        reused.push_back(harness::runOne(req));
    }
    // a's target, b's target (also aLoaded's background) and the
    // spinner, each built once, and none left alive.
    EXPECT_EQ(store.builds(), 3u);
    EXPECT_EQ(store.alive(), 0u);

    ASSERT_EQ(reused.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        // Without a store, a run builds everything it loads.
        harness::RunRecord fresh = harness::runOne(seq[i]);
        EXPECT_TRUE(fresh.ok()) << "request " << i << ": " << fresh.note;
        EXPECT_EQ(reused[i].status, fresh.status) << "request " << i;
        EXPECT_EQ(reused[i].ticks, fresh.ticks) << "request " << i;
        EXPECT_EQ(reused[i].valid, fresh.valid) << "request " << i;
        EXPECT_EQ(reused[i].events, fresh.events) << "request " << i;
        EXPECT_EQ(reused[i].instsRetired, fresh.instsRetired)
            << "request " << i;
    }
    // The sequence is only a test of reuse if its neighbours differ.
    EXPECT_NE(reused[0].ticks, reused[1].ticks);
    EXPECT_NE(reused[0].ticks, reused[2].ticks);
    EXPECT_NE(reused[0].ticks, reused[3].ticks);
    std::remove(image.c_str());
}

TEST(WorkloadStore, GridSweepBuildsEachKeyOnce)
{
    const Scenario sc = mustScenario(kGridShaped);
    std::vector<ScenarioPoint> pts;
    std::string err;
    ASSERT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    ASSERT_EQ(pts.size(), 12u);

    std::string rendered[2];
    const unsigned jobs[2] = {1, 4};
    for (int j = 0; j < 2; ++j) {
        ScenarioRunner::Options opts;
        opts.hostLines = false;
        opts.jobs = jobs[j];
        ScenarioRunner runner(opts);
        const std::vector<PointResult> results = runner.runAll(sc, pts);
        // workers = 1 and workers = 2: two keys, six points each.
        EXPECT_EQ(runner.workloads().builds(), 2u) << "jobs " << jobs[j];
        EXPECT_EQ(runner.workloads().alive(), 0u) << "jobs " << jobs[j];
        // The 1p points read no signal cost, so each worker count
        // simulates one of its three and the others reuse it; a reused
        // point releases its workloads without taking them, and none
        // outlives its last point. Racing twins may both simulate.
        std::size_t reused = 0;
        for (const PointResult &r : results)
            reused += r.run.reusedFrom != harness::kSimulated;
        if (jobs[j] == 1)
            EXPECT_EQ(reused, 4u);
        else
            EXPECT_LE(reused, 4u);
        for (const PointResult &r : results)
            EXPECT_TRUE(r.run.ok()) << r.coords.str();
        rendered[j] = renderArtifacts(sc, results);
    }
    EXPECT_EQ(rendered[0], rendered[1]);
}

TEST(WorkloadStore, FreesEachWorkloadAfterItsLastPoint)
{
    harness::RunRequest a = storeRequest(1, 8);
    harness::RunRequest b = storeRequest(2, 8);
    harness::RunRequest bLoaded = b;
    bLoaded.competitors = 1;
    const std::vector<harness::RunRequest> seq = {a, b, a, bLoaded};

    harness::WorkloadStore store;
    for (const harness::RunRequest &req : seq)
        store.expect(req);
    std::vector<std::size_t> alive;
    for (harness::RunRequest req : seq) {
        req.workloads = &store;
        EXPECT_TRUE(harness::runOne(req).ok());
        alive.push_back(store.alive());
    }
    // a lives until its second point, b and the spinner until the last.
    EXPECT_EQ(alive, (std::vector<std::size_t>{1, 2, 1, 0}));
    EXPECT_EQ(store.builds(), 3u);
}

TEST(WorkloadStore, ThrowingPointReleasesWhatItTook)
{
    // A machine that cannot be built panics after the point has taken
    // its workloads.
    harness::RunRequest bad = storeRequest(1, 8);
    bad.config.physFrames = 0;
    harness::RunRequest good = storeRequest(1, 8);
    harness::WorkloadStore store;
    store.expect(bad);
    store.expect(good);
    bad.workloads = &store;
    good.workloads = &store;
    EXPECT_THROW(harness::runOne(bad), SimError);
    EXPECT_EQ(store.builds(), 1u);
    EXPECT_EQ(store.alive(), 1u); // the good point still needs it
    EXPECT_TRUE(harness::runOne(good).ok());
    EXPECT_EQ(store.builds(), 1u);
    EXPECT_EQ(store.alive(), 0u);

    // In a sweep, the throw surfaces from runAll, and no workload
    // outlives it: not the thrower's, nor those of the points the
    // failure abandoned.
    const Scenario sc = mustScenario(kGridShaped);
    std::vector<ScenarioPoint> pts;
    std::string err;
    ASSERT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    pts[3].machine.config.physFrames = 0;
    for (unsigned jobs : {1u, 4u}) {
        ScenarioRunner::Options opts;
        opts.hostLines = false;
        opts.jobs = jobs;
        ScenarioRunner runner(opts);
        EXPECT_THROW(runner.runAll(sc, pts), SimError) << "jobs " << jobs;
        EXPECT_GE(runner.workloads().builds(), 1u) << "jobs " << jobs;
        EXPECT_EQ(runner.workloads().alive(), 0u) << "jobs " << jobs;
    }
}

// ---------------------------------------------------------------------
// Ported benches vs the old hand-rolled loops, tick for tick
// ---------------------------------------------------------------------

TEST(PortedBenches, Table1RunsMatchHandRolledLoop)
{
    // scenarios/table1.scn, shrunk to two applications: each grid
    // point must reproduce the old runWorkload(mispUni(7), Shred, ...)
    // numbers exactly — ticks and every Table-1 event class.
    wl::WorkloadParams params; // defaults: workers=7, scale=1
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nprocessors = 7\nbackend = shred\n"
        "[workload]\nname = dense_mvm\nworkers = 7\n"
        "[sweep]\nworkload.name = dense_mvm, gauss\n");
    ASSERT_EQ(results.size(), 2u);

    for (const PointResult &r : results) {
        HandRolledRun old = handRolledRunWorkload(
            arch::SystemConfig::uniprocessor(7), rt::Backend::Shred,
            r.coords.workload(), params);
        EXPECT_EQ(r.run.ticks, old.ticks) << r.coords.workload();
        EXPECT_TRUE(r.run.valid);
        for (std::size_t i = 0; i < harness::kNumEventCounters; ++i) {
            EXPECT_EQ(r.run.events[i], old.events[i])
                << r.coords.workload() << " "
                << harness::kEventCounters[i].name;
        }
    }
}

TEST(PortedBenches, Fig5SignalSweepMatchesHandRolledLoop)
{
    // scenarios/fig5_signal.scn shape: one application at signal 0 and
    // 5000 cycles, against the old per-cost mispUni(7) loop.
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nprocessors = 7\nbackend = shred\n"
        "[workload]\nname = dense_mvm\nworkers = 7\n"
        "[sweep]\nmachine.signal_cycles = 0, 5000\n");
    ASSERT_EQ(results.size(), 2u);

    wl::WorkloadParams params;
    const Cycles costs[] = {0, 5000}; // grid order
    for (std::size_t i = 0; i < 2; ++i) {
        arch::SystemConfig cfg = arch::SystemConfig::uniprocessor(7);
        cfg.misp.signalCycles = costs[i];
        HandRolledRun old = handRolledRunWorkload(
            cfg, rt::Backend::Shred, "dense_mvm", params);
        EXPECT_EQ(results[i].run.ticks, old.ticks) << "signal=" << costs[i];
    }
    // The sweep must actually change the machine: nonzero signal cost
    // is slower than the ideal.
    EXPECT_GT(results[1].run.ticks, results[0].run.ticks);
}

TEST(PortedBenches, SerializationPolicySweepMatchesHandRolledLoop)
{
    // scenarios/ablation_serialization.scn shape, one application; the
    // ablation's extra metric (total AMS suspension cycles) must also
    // match the old direct amsAt(i).suspendedCycles() sum.
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nprocessors = 7\nbackend = shred\n"
        "[workload]\nname = gauss\nworkers = 7\n"
        "[sweep]\nmachine.serialization = suspend_all, "
        "speculative_monitor\n");
    ASSERT_EQ(results.size(), 2u);

    using EC = harness::EventCounter;
    wl::WorkloadParams params;
    const arch::SerializationPolicy policies[] = { // grid order
        arch::SerializationPolicy::SuspendAll,
        arch::SerializationPolicy::SpeculativeMonitor,
    };
    for (std::size_t i = 0; i < 2; ++i) {
        arch::SystemConfig cfg = arch::SystemConfig::uniprocessor(7);
        cfg.misp.serialization = policies[i];
        HandRolledRun old = handRolledRunWorkload(
            cfg, rt::Backend::Shred, "gauss", params);
        const PointResult &r = results[i];
        EXPECT_EQ(r.run.ticks, old.ticks) << i;
        EXPECT_DOUBLE_EQ(r.run.events[EC::SuspendedCycles],
                         old.events[EC::SuspendedCycles])
            << i;
    }
    // The speculative policy removes all AMS suspension.
    EXPECT_GT(results[0].run.events[EC::SuspendedCycles], 0.0);
    EXPECT_DOUBLE_EQ(results[1].run.events[EC::SuspendedCycles], 0.0);
}

TEST(PortedBenches, PageprobeSweepMatchesHandRolledLoop)
{
    // scenarios/ablation_pageprobe.scn shape: prefault off -> on moves
    // compulsory faults from the AMSs to the OMS serial region.
    using EC = harness::EventCounter;
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nprocessors = 7\nbackend = shred\n"
        "[workload]\nname = dense_mvm\nworkers = 7\n"
        "[sweep]\nworkload.prefault = false, true\n");
    ASSERT_EQ(results.size(), 2u);

    for (bool prefault : {false, true}) {
        wl::WorkloadParams params;
        params.prefault = prefault;
        HandRolledRun old = handRolledRunWorkload(
            arch::SystemConfig::uniprocessor(7), rt::Backend::Shred,
            "dense_mvm", params);
        const PointResult &r = results[prefault]; // grid order
        EXPECT_EQ(r.run.ticks, old.ticks) << "prefault=" << prefault;
        EXPECT_EQ(r.run.events[EC::AmsPageFaults],
                  old.events[EC::AmsPageFaults]);
        EXPECT_EQ(r.run.events[EC::OmsPageFaults],
                  old.events[EC::OmsPageFaults]);
    }
    EXPECT_GT(results[0].run.events[EC::AmsPageFaults],
              results[1].run.events[EC::AmsPageFaults]);
}

// ---------------------------------------------------------------------
// --jobs N determinism
// ---------------------------------------------------------------------

TEST(ParallelRunner, Jobs4OutputByteIdenticalToSerial)
{
    const std::string text =
        "[scenario]\nname = par\ntitle = Parallel determinism\n"
        "[machine misp]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.workers = 1, 2, 3\n";
    std::vector<PointResult> serial = runScenarioText(text, 1);
    std::vector<PointResult> parallel = runScenarioText(text, 4);
    ASSERT_EQ(serial.size(), parallel.size());

    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].run.ticks, parallel[i].run.ticks);
        EXPECT_EQ(serial[i].run.instsRetired,
                  parallel[i].run.instsRetired);
        EXPECT_EQ(serial[i].coords.machine(), parallel[i].coords.machine());
        EXPECT_EQ(serial[i].coords.str(), parallel[i].coords.str());
    }

    Scenario sc = mustScenario(text);
    EXPECT_EQ(renderArtifacts(sc, serial), renderArtifacts(sc, parallel));
}

// ---------------------------------------------------------------------
// [report] asserts
// ---------------------------------------------------------------------

TEST(ReportAsserts, PassFailAndDiagnostics)
{
    const std::string base = "[machine a]\nams = 1\n[machine b]\nams = 3\n"
                             "[workload]\nname = dense_mvm\n"
                             "[report]\nbaseline_machine = a\n";
    Scenario sc = mustScenario(
        base +
        "assert = b.speedup >= 1.5\n"
        "assert = a.events.oms_page_faults == 10\n"
        "assert = b.events_per_mi.ams_page_faults <= 20 + 1.5 * 2\n");
    EXPECT_EQ(sc.report.asserts.size(), 3u);

    // Machines a, b.
    const std::vector<PointResult> results =
        fakeGrid(sc, {fakeRun(300, 1'000'000), fakeRun(100, 2'000'000)});

    std::vector<AssertFailure> failures;
    std::string err;
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    EXPECT_TRUE(failures.empty());

    // A failing assert reports its spec line and both sides.
    Scenario bad = mustScenario(base + "assert = b.speedup >= 100\n");
    failures.clear();
    ASSERT_TRUE(evalAsserts(bad, results, &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].line, 9);
    EXPECT_NE(failures[0].detail.find("lhs=3"), std::string::npos);

    // Malformed expressions and unknown references are rejected when
    // the spec loads, with the assert's line.
    EXPECT_NE(loadError(base + "assert = b.speedup >=\n").find(":9:"),
              std::string::npos);
    EXPECT_NE(loadError(base + "assert = nosuch.ticks > 0\n")
                  .find("<test>:9: assert 'nosuch.ticks > 0': 'nosuch.ticks' "
                        "names no [machine] section"),
              std::string::npos);
    EXPECT_NE(loadError(base + "assert = b.nosuchmetric > 0\n")
                  .find("<test>:9: assert 'b.nosuchmetric > 0': "
                        "'b.nosuchmetric': unknown metric"),
              std::string::npos);

    // Division by zero fails closed (a guard dividing by a run that
    // never finished must not silently pass), never evaluates to 0.
    bad = mustScenario(base + "assert = a.ticks / 0 <= 1\n");
    EXPECT_FALSE(evalAsserts(bad, results, &failures, &err));
    EXPECT_NE(err.find("<test>:9: assert 'a.ticks / 0 <= 1': division by "
                       "zero"),
              std::string::npos)
        << err;

    // speedup requires a baseline machine.
    err = loadError("[machine a]\nams = 1\n[workload]\nname = dense_mvm\n"
                    "[report]\nassert = a.speedup >= 1\n");
    EXPECT_NE(err.find("<test>:6:"), std::string::npos) << err;
    EXPECT_NE(err.find("speedup needs a [report] baseline_machine"),
              std::string::npos)
        << err;
}

TEST(ReportAsserts, ParenthesesGroupSubexpressions)
{
    const std::string base =
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n[report]\nbaseline_machine = a\n";
    // Machines a, b.
    const std::vector<PointResult> results =
        fakeGrid(mustScenario(base),
                 {fakeRun(300, 1'000'000), fakeRun(100, 2'000'000)});

    std::vector<AssertFailure> failures;
    std::string err;

    // Without parens: 300 - 100 / 100 = 299. With: (300-100)/100 = 2.
    Scenario sc = mustScenario(
        base + "assert = a.ticks - b.ticks / b.ticks == 299\n"
               "assert = ( a.ticks - b.ticks ) / b.ticks == 2\n"
               // Parens may hug their operands.
               "assert = (a.ticks - b.ticks) / b.ticks == 2\n"
               // Nesting composes.
               "assert = ( ( a.ticks - b.ticks ) / ( b.ticks ) ) "
               "* 10 == 20\n");
    failures.clear();
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    EXPECT_TRUE(failures.empty()) << failures.size();

    // Unbalanced parens are load errors, both ways.
    EXPECT_NE(loadError(base + "assert = ( a.ticks > 0\n")
                  .find(":9: assert '( a.ticks > 0': expected ')', got '>'"),
              std::string::npos);
    EXPECT_NE(loadError(base + "assert = a.ticks ) > 0\n")
                  .find(":9: assert 'a.ticks ) > 0': expected a comparison"),
              std::string::npos);
}

TEST(ReportAsserts, EvaluatedPerCoordinateGroup)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.workers = 1, 2\n"
        "[report]\nbaseline_machine = a\nassert = b.speedup >= 2\n");

    // (a, b) at workers=1: 4.0x, holds; at workers=2: 1.5x, fails.
    const std::vector<PointResult> results =
        fakeGrid(sc, {fakeRun(400, 1'000'000), fakeRun(100, 1'000'000),
                      fakeRun(300, 1'000'000), fakeRun(200, 1'000'000)});

    std::vector<AssertFailure> failures;
    std::string err;
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("workload.workers=2"),
              std::string::npos);
}

TEST(ReportAsserts, DegradedGroupsAreSkippedAndCounted)
{
    // The workers=2 group lost its b point to a worker crash: the
    // per-group claim is skipped there (reported via skippedGroups),
    // aggregates exclude the group, and dividing by the crashed
    // point's zeroed metrics is suppressed instead of failing closed.
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.workers = 1, 2\n"
        "[report]\nbaseline_machine = a\n"
        "assert = a.ticks / b.ticks >= 2\n"
        "assert = count ( b.completed ) == count ( 1 )\n"
        "assert = sum ( b.ticks ) == 100\n");

    // (a, b) at workers=1, then at workers=2.
    std::vector<PointResult> results =
        fakeGrid(sc, {fakeRun(400, 1'000'000), fakeRun(100, 1'000'000),
                      fakeRun(300, 1'000'000), fakeRun(200, 1'000'000)});
    results[3].run.status = harness::RunStatus::WorkerTimeout;
    results[3].run.ticks = 0;
    results[3].run.valid = false;
    results[3].run.attempts = 2;

    std::vector<AssertFailure> failures;
    std::string err;
    std::size_t skipped = 0;
    ASSERT_TRUE(evaluateAsserts(sc, buildMetricFrame(sc, results),
                                &failures, &err, &skipped))
        << err;
    EXPECT_TRUE(failures.empty())
        << failures[0].text << ": " << failures[0].detail;
    EXPECT_EQ(skipped, 1u);
}

// ---------------------------------------------------------------------
// [table] sections and the shared grid emitter
// ---------------------------------------------------------------------

namespace {

/** One synthetic frame row: every standard column derives from
 *  ticks/insts (ams page faults = ticks / 10^5), so nothing simulates. */
struct FakeRow {
    std::string machine;
    std::vector<harness::MetricFrame::Coord> coords;
    double ticks = 0;
    harness::RunStatus status = harness::RunStatus::Completed;
    bool valid = true;
};

/** Build @p rows, one per point of @p sc's grid in grid order (each
 *  naming the machine and coordinates it expects), into a frame the
 *  way a live sweep does; a [report] baseline_machine adds the derived
 *  `speedup` column. */
harness::MetricFrame
loadFrame(const Scenario &sc, const std::vector<FakeRow> &rows)
{
    std::vector<PointResult> results = test::gridResults(sc);
    EXPECT_EQ(results.size(), rows.size());
    for (std::size_t i = 0; i < results.size() && i < rows.size(); ++i) {
        const FakeRow &f = rows[i];
        PointResult &r = results[i];
        EXPECT_EQ(r.coords.machine(), f.machine) << i;
        EXPECT_EQ(r.coords.size(), f.coords.size()) << i;
        for (std::size_t a = 0; a < r.coords.size() && a < f.coords.size();
             ++a) {
            EXPECT_EQ(r.coords.key(a), f.coords[a].first) << i;
            EXPECT_EQ(r.coords.value(a), f.coords[a].second) << i;
        }
        const bool done = f.status == harness::RunStatus::Completed;
        harness::RunRecord &rec = r.run;
        rec.status = f.status;
        rec.ticks = done ? static_cast<Tick>(f.ticks) : 0;
        rec.valid = done && f.valid;
        rec.instsRetired = 2000000;
        rec.events[harness::EventCounter::AmsPageFaults] =
            static_cast<double>(rec.ticks) / 1e5;
    }
    return buildMetricFrame(sc, results);
}

std::string
renderTables(const Scenario &sc, const harness::MetricFrame &frame,
             bool markdown)
{
    std::ostringstream os;
    std::string err;
    EXPECT_TRUE(writeTables(os, sc, frame, markdown, &err)) << err;
    return os.str();
}

/** `[table]` text whose render over @p frame must fail; returns the
 *  diagnostic and checks nothing reached the stream. */
std::string
tableError(const std::string &specText, const harness::MetricFrame &frame)
{
    Scenario sc = mustScenario(specText);
    std::ostringstream os;
    std::string err;
    EXPECT_FALSE(writeTables(os, sc, frame, false, &err));
    EXPECT_EQ(os.str(), "");
    return err;
}

const char *const kTwoMachines =
    "[machine a]\nams = 1\n[machine b]\nams = 3\n"
    "[workload]\nname = dense_mvm\n"
    "[sweep]\nworkload.name = dense_mvm, swim\n";

std::vector<FakeRow>
twoMachineRows()
{
    return {{"a", {{"workload.name", "dense_mvm"}}, 2e6},
            {"b", {{"workload.name", "dense_mvm"}}, 1e6},
            {"a", {{"workload.name", "swim"}}, 3e6},
            {"b", {{"workload.name", "swim"}}, 2e6}};
}

} // namespace

TEST(TableReport, GoldenPlainAndMarkdown)
{
    Scenario sc = mustScenario(
        std::string(kTwoMachines) +
        "[table]\ntitle = Speedups\n"
        "column = a (Mcyc) = a.mcycles\n"
        "column = b vs a = a.ticks / b.ticks\n"
        "footer = avg b vs a = avg ( a.ticks / b.ticks )\n"
        "[table]\ntitle = Totals\n"
        "column = sum = sum ( a.ticks + b.ticks )\n");
    ASSERT_EQ(sc.tables.size(), 2u);
    const harness::MetricFrame frame = loadFrame(sc, twoMachineRows());

    EXPECT_EQ(renderTables(sc, frame, false),
              "Speedups\n"
              "\n"
              "workload.name  a (Mcyc)  b vs a\n"
              "-------------------------------\n"
              "dense_mvm      2         2     \n"
              "swim           3         1.500 \n"
              "\n"
              "avg b vs a: 1.750\n"
              "\n"
              "Totals\n"
              "\n"
              "sum    \n"
              "-------\n"
              "8000000\n");
    EXPECT_EQ(renderTables(sc, frame, true),
              "### Speedups\n"
              "\n"
              "| workload.name | a (Mcyc) | b vs a |\n"
              "| --- | --- | --- |\n"
              "| dense_mvm | 2 | 2 |\n"
              "| swim | 3 | 1.500 |\n"
              "\n"
              "- avg b vs a: 1.750\n"
              "\n"
              "### Totals\n"
              "\n"
              "| sum |\n"
              "| --- |\n"
              "| 8000000 |\n");
}

TEST(TableReport, RowsCollapseByConsultedAxes)
{
    // A fig5-shaped two-axis sweep: selectors pin signal_cycles, so
    // the overhead column consults only workload.name (one row per
    // workload); a bare reference consults both axes.
    Scenario sc = mustScenario(
        "[machine misp]\nams = 7\n[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.name = dense_mvm, swim\n"
        "machine.signal_cycles = 0, 5000\n"
        "[table]\n"
        "column = 5000 vs 0 = misp[machine.signal_cycles=5000].ticks / "
        "misp[machine.signal_cycles=0].ticks\n"
        "[table]\ncolumn = Mcyc = misp.mcycles\n");
    std::vector<FakeRow> rows;
    for (const char *w : {"dense_mvm", "swim"}) {
        rows.push_back({"misp",
                        {{"workload.name", w},
                         {"machine.signal_cycles", "0"}},
                        4e6});
        rows.push_back({"misp",
                        {{"workload.name", w},
                         {"machine.signal_cycles", "5000"}},
                        std::string(w) == "swim" ? 5e6 : 4e6});
    }
    EXPECT_EQ(renderTables(sc, loadFrame(sc, rows), false),
              "workload.name  5000 vs 0\n"
              "------------------------\n"
              "dense_mvm      1        \n"
              "swim           1.250    \n"
              "\n"
              "workload.name  machine.signal_cycles  Mcyc\n"
              "------------------------------------------\n"
              "dense_mvm      0                      4   \n"
              "dense_mvm      5000                   4   \n"
              "swim           0                      4   \n"
              "swim           5000                   5   \n");
}

TEST(TableReport, FailedPointRendersDashAndFootersSkipIt)
{
    Scenario sc = mustScenario(
        std::string(kTwoMachines) +
        "[table]\ncolumn = b vs a = a.ticks / b.ticks\n"
        "footer = avg = avg ( a.ticks / b.ticks )\n"
        "footer = worst = min ( a.ticks / b.ticks )\n");
    std::vector<FakeRow> rows = twoMachineRows();
    rows[1].status = harness::RunStatus::WorkerCrashed; // b @ dense_mvm
    EXPECT_EQ(renderTables(sc, loadFrame(sc, rows), false),
              "workload.name  b vs a\n"
              "---------------------\n"
              "dense_mvm      -     \n"
              "swim           1.500 \n"
              "\n"
              "avg: 1.500\n"
              "worst: 1.500\n");

    // A crash elsewhere in a group degrades every cell of that group,
    // even one whose own references completed — the same group rule
    // the assert evaluator applies.
    rows = twoMachineRows();
    rows[2].status = harness::RunStatus::WorkerTimeout; // a @ swim
    Scenario bOnly = mustScenario(std::string(kTwoMachines) +
                                  "[table]\ncolumn = b = b.mcycles\n");
    EXPECT_EQ(renderTables(bOnly, loadFrame(bOnly, rows), true),
              "| workload.name | b |\n"
              "| --- | --- |\n"
              "| dense_mvm | 1 |\n"
              "| swim | - |\n");
}

TEST(TableReport, FooterBySuite)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.name = swim, dense_mvm, gauss\n"
        "[table]\ncolumn = b vs a = a.ticks / b.ticks\n"
        "footer = avg b vs a = avg ( a.ticks / b.ticks ) by suite\n"
        "footer = all = count ( 1 )\n");
    ASSERT_EQ(sc.tables[0].footers.size(), 2u);
    EXPECT_TRUE(sc.tables[0].footers[0].bySuite);
    EXPECT_EQ(sc.tables[0].footers[0].expr, "avg ( a.ticks / b.ticks )");
    std::vector<FakeRow> rows;
    const struct {
        const char *name;
        double a, b;
    } apps[] = {{"swim", 6e6, 2e6}, {"dense_mvm", 2e6, 1e6},
                {"gauss", 4e6, 1e6}};
    for (const auto &app : apps) {
        rows.push_back({"a", {{"workload.name", app.name}}, app.a});
        rows.push_back({"b", {{"workload.name", app.name}}, app.b});
    }
    // Registry order puts rms (dense_mvm 2, gauss 4) before specomp
    // (swim 3), whatever the sweep order.
    EXPECT_EQ(renderTables(sc, loadFrame(sc, rows), false),
              "workload.name  b vs a\n"
              "---------------------\n"
              "swim           3     \n"
              "dense_mvm      2     \n"
              "gauss          4     \n"
              "\n"
              "avg b vs a [rms]: 3\n"
              "avg b vs a [specomp]: 3\n"
              "all: 3\n");
}

TEST(TableReport, MalformedTablesRejectedWithSpecLine)
{
    // Spec-level: unknown keys and label-less columns fail fromSpec.
    SpecFile spec;
    Scenario sc;
    std::string err;
    ASSERT_TRUE(SpecFile::parse(std::string(kTwoMachines) +
                                    "[table]\ncolumn = x = a.ticks\n"
                                    "rows = workload.name\n",
                                "t.scn", &spec, &err))
        << err;
    EXPECT_FALSE(Scenario::fromSpec(spec, &sc, &err));
    EXPECT_EQ(err.rfind("t.scn:11: unknown [table] key 'rows'", 0), 0u)
        << err;
    ASSERT_TRUE(SpecFile::parse(std::string(kTwoMachines) +
                                    "[table]\ncolumn = a.ticks\n",
                                "t.scn", &spec, &err));
    EXPECT_FALSE(Scenario::fromSpec(spec, &sc, &err));
    EXPECT_EQ(err.rfind("t.scn:10: column: expected '<label> = <expr>'", 0),
              0u)
        << err;
    ASSERT_TRUE(SpecFile::parse(std::string(kTwoMachines) +
                                    "[table]\ntitle = empty\n",
                                "t.scn", &spec, &err));
    EXPECT_FALSE(Scenario::fromSpec(spec, &sc, &err));
    EXPECT_NE(err.find("t.scn:9: [table] needs at least one 'column'"),
              std::string::npos)
        << err;

    // Malformed or unresolvable expressions and footers outside an
    // aggregate are "path:line:" diagnostics when the spec loads, so
    // no point runs and no table is written.
    const std::string good = "[table]\ncolumn = ok = a.ticks\n";
    err = loadError(std::string(kTwoMachines) + good +
                    "[table]\ncolumn = bad = ( a.ticks / b.ticks\n");
    EXPECT_EQ(err.rfind("<test>:12: 'bad = ( a.ticks / b.ticks': "
                        "expected ')'",
                        0),
              0u)
        << err;
    err = loadError(std::string(kTwoMachines) +
                    "[table]\ncolumn = x = c.ticks\n");
    EXPECT_NE(err.find("<test>:10:"), std::string::npos) << err;
    EXPECT_NE(err.find("names no [machine] section"), std::string::npos)
        << err;
    err = loadError(std::string(kTwoMachines) +
                    "[table]\ncolumn = x = a.ticks b.ticks\n");
    EXPECT_NE(err.find("<test>:10: 'x = a.ticks b.ticks': unexpected "
                       "trailing token 'b.ticks'"),
              std::string::npos)
        << err;
    err = loadError(std::string(kTwoMachines) +
                    "[table]\ncolumn = x = a.ticks\n"
                    "footer = y = a.ticks\n");
    EXPECT_NE(err.find("<test>:11: footer 'y': per-point references must "
                       "sit inside an aggregate"),
              std::string::npos)
        << err;

    // What depends on the frame still fails when the table renders, and
    // nothing is written — not even the tables before the bad one.
    err = tableError(std::string(kTwoMachines) + good +
                         "[table]\ncolumn = bad = a.ticks / 0\n",
                     loadFrame(mustScenario(kTwoMachines), twoMachineRows()));
    EXPECT_EQ(err, "<test>:12: 'bad = a.ticks / 0': division by zero");
}

TEST(TableReport, SpecWithoutTableKeepsThePerPointTable)
{
    // Byte-for-byte the per-point table writeTable printed before it
    // shared the grid emitter: coords, Mcycles, both baseline columns,
    // and the valid/status columns a bad sweep grows.
    Scenario sc = mustScenario(
        "[scenario]\ntitle = Per-point\n"
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\ncompetitors = 0, 1\n"
        "[report]\nbaseline_machine = a\nbaseline_axis = competitors\n");
    EXPECT_TRUE(sc.tables.empty());
    std::vector<FakeRow> rows = {
        {"a", {{"competitors", "0"}}, 2e6},
        {"b", {{"competitors", "0"}}, 1e6},
        {"a", {{"competitors", "1"}}, 3e6},
        {"b", {{"competitors", "1"}}, 2e6,
         harness::RunStatus::WorkerCrashed},
    };
    rows[2].valid = false;
    const harness::MetricFrame frame = loadFrame(sc, rows);
    std::ostringstream plain, md;
    writeTable(plain, sc, frame, false);
    writeTable(md, sc, frame, true);
    EXPECT_EQ(plain.str(),
              "Per-point\n"
              "\n"
              "machine  workload   competitors  Mcycles  speedup_vs_a  "
              "vs_competitors0  valid  status        \n"
              "-----------------------------------------------"
              "-----------------------------------------------\n"
              "a        dense_mvm  0            2.000    1.000         "
              "1.000            yes    completed     \n"
              "b        dense_mvm  0            1.000    2.000         "
              "1.000            yes    completed     \n"
              "a        dense_mvm  1            3.000    1.000         "
              "0.667            NO     completed     \n"
              "b        dense_mvm  1            0.000    -             "
              "-                NO     worker_crashed\n");
    EXPECT_EQ(md.str(),
              "### Per-point\n"
              "\n"
              "| machine | workload | competitors | Mcycles | speedup_vs_a "
              "| vs_competitors0 | valid | status |\n"
              "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
              "| a | dense_mvm | 0 | 2.000 | 1.000 | 1.000 | yes | "
              "completed |\n"
              "| b | dense_mvm | 0 | 1.000 | 2.000 | 1.000 | yes | "
              "completed |\n"
              "| a | dense_mvm | 1 | 3.000 | 1.000 | 0.667 | NO | "
              "completed |\n"
              "| b | dense_mvm | 1 | 0.000 | - | - | NO | "
              "worker_crashed |\n");
}

// ---------------------------------------------------------------------
// Per-workload knobs (param.<key>)
// ---------------------------------------------------------------------

TEST(WorkloadParamKnobs, RoutedThroughSetWorkloadParam)
{
    wl::WorkloadParams p;
    std::string err;
    ASSERT_TRUE(wl::setWorkloadParam(p, "param.rows", "36", &err)) << err;
    ASSERT_EQ(p.extra.size(), 1u);
    EXPECT_EQ(p.extra[0].first, "rows");
    EXPECT_EQ(p.extraU64("rows", 144), 36u);
    EXPECT_EQ(p.extraU64("missing", 7), 7u);

    // Re-setting replaces, not appends (sweep overrides rely on this).
    ASSERT_TRUE(wl::setWorkloadParam(p, "param.rows", "72", &err));
    ASSERT_EQ(p.extra.size(), 1u);
    EXPECT_EQ(p.extraU64("rows", 144), 72u);

    EXPECT_FALSE(wl::setWorkloadParam(p, "param.", "1", &err));
    EXPECT_NE(err.find("missing a knob name"), std::string::npos);

    // A knob that is present but unparseable fails closed instead of
    // silently running the default.
    ASSERT_TRUE(wl::setWorkloadParam(p, "param.rows", "1O0", &err));
    EXPECT_THROW(p.extraU64("rows", 144), SimError);
}

TEST(WorkloadParamKnobs, RaytracerSceneSizeKnob)
{
    // The RayTracer consumes param.rows as its scene row count: more
    // rows, more pixels, more ticks — through the scenario layer, and
    // sweepable as a workload.param.rows axis.
    std::vector<PointResult> results = runScenarioText(
        "[machine misp]\nams = 3\n"
        "[workload]\nname = Raytracer\nworkers = 3\n"
        "[sweep]\nworkload.param.rows = 24, 48\n");
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].run.ok());
    EXPECT_TRUE(results[1].run.ok());
    EXPECT_GT(results[1].run.ticks, results[0].run.ticks);

    // Equivalent to building with the knob set directly.
    wl::WorkloadParams p;
    p.workers = 3;
    std::string err;
    ASSERT_TRUE(wl::setWorkloadParam(p, "param.rows", "24", &err));
    HandRolledRun old = handRolledRunWorkload(
        arch::SystemConfig::uniprocessor(3), rt::Backend::Shred,
        "Raytracer", p);
    EXPECT_TRUE(old.valid);
    EXPECT_EQ(results[0].run.ticks, old.ticks);
}

// ---------------------------------------------------------------------
// Checked-in scenario specs
// ---------------------------------------------------------------------

/** The checked-in specs, found from the source tree wherever the
 *  build directory is. */
const std::string kScenarios = std::string(MISP_SOURCE_ROOT) + "/scenarios/";

TEST(CheckedInScenarios, PortedBenchSpecsParseAndExpand)
{
    const struct {
        const char *file;
        std::size_t quickPoints;
    } cases[] = {
        {"table1.scn", 4},                // quick spread x 1 machine
        {"fig5_signal.scn", 16},          // 4 workloads x 4 costs
        {"ablation_serialization.scn", 4}, // 2 workloads x 2 policies
        {"ablation_pageprobe.scn", 2},    // 1 workload x off/on
    };
    for (const auto &c : cases) {
        std::string path = findScenarioFile(kScenarios + c.file, nullptr);
        ASSERT_FALSE(path.empty()) << c.file << " not found";
        SpecFile spec;
        Scenario sc;
        std::vector<ScenarioPoint> pts;
        std::string err;
        ASSERT_TRUE(SpecFile::parseFile(path, &spec, &err)) << err;
        ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
        ASSERT_TRUE(sc.expandPoints(/*quickMode=*/true, &pts, &err))
            << err;
        EXPECT_EQ(pts.size(), c.quickPoints) << c.file;
    }

    // table1 guards its claims from the spec (per-suite aggregates);
    // fig4 carries the §5.3 speedup asserts plus their suite-level
    // aggregate forms.
    std::string path = findScenarioFile(kScenarios + "table1.scn", nullptr);
    SpecFile spec;
    Scenario sc;
    std::string err;
    ASSERT_TRUE(SpecFile::parseFile(path, &spec, &err)) << err;
    ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_EQ(sc.tables.size(), 2u); // raw counts + per-10^6 view
    EXPECT_EQ(sc.report.asserts.size(), 4u);

    path = findScenarioFile(kScenarios + "fig4.scn", nullptr);
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(SpecFile::parseFile(path, &spec, &err)) << err;
    ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_EQ(sc.report.asserts.size(), 5u);
}
