/**
 * @file
 * Unified run layer tests: RunRecord status/derived metrics, runOne()
 * equivalence with the hand-rolled experiment loops the ported benches
 * (table1_events, fig5_signal_cost, ablation_serialization,
 * ablation_pageprobe) used before the scenario specs existed, `--jobs`
 * byte-identity with serial runs, [report] assert evaluation, the
 * [table] renderer and the shared grid emitter, and the `param.<key>`
 * per-workload knobs.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "harness/run_record.hh"
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
    harness::EventSnapshot events;
    double suspendedCycles = 0; // summed directly over the AMSs
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
    arch::MispProcessor &mp = exp.system().processor(0);
    out.events = harness::snapshotEvents(mp);
    for (unsigned i = 0; i < mp.numAms(); ++i)
        out.suspendedCycles += double(mp.amsAt(i).suspendedCycles());
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
driver::PointResult
fakePoint(const std::string &machine, const std::string &workload,
          Tick ticks, std::uint64_t insts,
          std::vector<std::pair<std::string, std::string>> coords = {})
{
    driver::PointResult r;
    r.machine = machine;
    r.workload = workload;
    r.coords = std::move(coords);
    r.run.status = harness::RunStatus::Completed;
    r.run.ticks = ticks;
    r.run.valid = true;
    r.run.instsRetired = insts;
    r.run.events.omsPageFaults = 10;
    r.run.events.amsPageFaults = 40;
    return r;
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
    harness::RunRecord base;
    base.status = harness::RunStatus::Completed;
    base.ticks = 200;
    harness::RunRecord r;
    r.status = harness::RunStatus::Completed;
    r.ticks = 100;
    r.instsRetired = 2'000'000;

    EXPECT_DOUBLE_EQ(r.speedupOver(base), 2.0);
    EXPECT_DOUBLE_EQ(base.speedupOver(r), 0.5);
    EXPECT_DOUBLE_EQ(r.megaCycles(), 1e-4);
    EXPECT_DOUBLE_EQ(r.perMegaInsts(10), 5.0);

    harness::RunRecord never;
    EXPECT_DOUBLE_EQ(r.speedupOver(never), 0.0);
    EXPECT_DOUBLE_EQ(never.speedupOver(r), 0.0);
    EXPECT_DOUBLE_EQ(never.perMegaInsts(10), 0.0);
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
            r.workload, params);
        EXPECT_EQ(r.run.ticks, old.ticks) << r.workload;
        EXPECT_TRUE(r.run.valid);
        EXPECT_EQ(r.run.events.omsSyscalls, old.events.omsSyscalls);
        EXPECT_EQ(r.run.events.omsPageFaults, old.events.omsPageFaults);
        EXPECT_EQ(r.run.events.timer, old.events.timer);
        EXPECT_EQ(r.run.events.interrupts, old.events.interrupts);
        EXPECT_EQ(r.run.events.amsSyscalls, old.events.amsSyscalls);
        EXPECT_EQ(r.run.events.amsPageFaults, old.events.amsPageFaults);
        EXPECT_EQ(r.run.events.serializations, old.events.serializations);
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
    for (Cycles cost : {Cycles(0), Cycles(5000)}) {
        arch::SystemConfig cfg = arch::SystemConfig::uniprocessor(7);
        cfg.misp.signalCycles = cost;
        HandRolledRun old = handRolledRunWorkload(
            cfg, rt::Backend::Shred, "dense_mvm", params);
        const PointResult *r = findResultCoords(
            results, "misp",
            {{"machine.signal_cycles", std::to_string(cost)}});
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->run.ticks, old.ticks) << "signal=" << cost;
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

    wl::WorkloadParams params;
    const std::pair<const char *, arch::SerializationPolicy> legs[] = {
        {"suspend_all", arch::SerializationPolicy::SuspendAll},
        {"speculative_monitor",
         arch::SerializationPolicy::SpeculativeMonitor},
    };
    for (const auto &[coord, policy] : legs) {
        arch::SystemConfig cfg = arch::SystemConfig::uniprocessor(7);
        cfg.misp.serialization = policy;
        HandRolledRun old = handRolledRunWorkload(
            cfg, rt::Backend::Shred, "gauss", params);
        const PointResult *r = findResultCoords(
            results, "misp", {{"machine.serialization", coord}});
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->run.ticks, old.ticks) << coord;
        EXPECT_DOUBLE_EQ(r->run.events.suspendedCycles,
                         old.suspendedCycles)
            << coord;
    }
    // The speculative policy removes all AMS suspension.
    EXPECT_GT(results[0].run.events.suspendedCycles, 0.0);
    EXPECT_DOUBLE_EQ(results[1].run.events.suspendedCycles, 0.0);
}

TEST(PortedBenches, PageprobeSweepMatchesHandRolledLoop)
{
    // scenarios/ablation_pageprobe.scn shape: prefault off -> on moves
    // compulsory faults from the AMSs to the OMS serial region.
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
        const PointResult *r = findResultCoords(
            results, "misp",
            {{"workload.prefault", prefault ? "true" : "false"}});
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->run.ticks, old.ticks) << "prefault=" << prefault;
        EXPECT_EQ(r->run.events.amsPageFaults, old.events.amsPageFaults);
        EXPECT_EQ(r->run.events.omsPageFaults, old.events.omsPageFaults);
    }
    const PointResult *off = findResultCoords(
        results, "misp", {{"workload.prefault", "false"}});
    const PointResult *on = findResultCoords(
        results, "misp", {{"workload.prefault", "true"}});
    EXPECT_GT(off->run.events.amsPageFaults,
              on->run.events.amsPageFaults);
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
        EXPECT_EQ(serial[i].coords, parallel[i].coords);
    }

    Scenario sc = mustScenario(text);
    auto render = [&](const std::vector<PointResult> &results) {
        const harness::MetricFrame frame = buildMetricFrame(sc, results);
        std::ostringstream json, table, points;
        writeJson(json, sc, false, frame);
        writeTable(table, sc, frame, false);
        writePoints(points, frame);
        return json.str() + "\x1e" + table.str() + "\x1e" + points.str();
    };
    EXPECT_EQ(render(serial), render(parallel));
}

// ---------------------------------------------------------------------
// [report] asserts
// ---------------------------------------------------------------------

TEST(ReportAsserts, PassFailAndDiagnostics)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[report]\nbaseline_machine = a\n"
        "assert = b.speedup >= 1.5\n"
        "assert = a.events.oms_page_faults == 10\n"
        "assert = b.events_per_mi.ams_page_faults <= 20 + 1.5 * 2\n");
    EXPECT_EQ(sc.report.asserts.size(), 3u);

    std::vector<PointResult> results;
    results.push_back(fakePoint("a", "dense_mvm", 300, 1'000'000));
    results.push_back(fakePoint("b", "dense_mvm", 100, 2'000'000));

    std::vector<AssertFailure> failures;
    std::string err;
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    EXPECT_TRUE(failures.empty());

    // A failing assert reports its spec line and both sides.
    Scenario bad = sc;
    bad.report.asserts = {{"b.speedup >= 100", 42}};
    failures.clear();
    ASSERT_TRUE(evalAsserts(bad, results, &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].line, 42);
    EXPECT_NE(failures[0].detail.find("lhs=3"), std::string::npos);

    // Malformed expressions and unknown references are hard errors.
    bad.report.asserts = {{"b.speedup >=", 7}};
    failures.clear();
    EXPECT_FALSE(evalAsserts(bad, results, &failures, &err));
    EXPECT_NE(err.find(":7:"), std::string::npos);

    bad.report.asserts = {{"nosuch.ticks > 0", 8}};
    EXPECT_FALSE(evalAsserts(bad, results, &failures, &err));
    EXPECT_NE(err.find("names no [machine] section"), std::string::npos);

    bad.report.asserts = {{"b.nosuchmetric > 0", 9}};
    EXPECT_FALSE(evalAsserts(bad, results, &failures, &err));
    EXPECT_NE(err.find("unknown metric"), std::string::npos);

    // Division by zero fails closed (a guard dividing by a run that
    // never finished must not silently pass), never evaluates to 0.
    bad.report.asserts = {{"a.ticks / 0 <= 1", 10}};
    EXPECT_FALSE(evalAsserts(bad, results, &failures, &err));
    EXPECT_NE(err.find("division by zero"), std::string::npos);

    // speedup requires a baseline machine.
    Scenario nobase = mustScenario(
        "[machine a]\nams = 1\n[workload]\nname = dense_mvm\n"
        "[report]\nassert = a.speedup >= 1\n");
    std::vector<PointResult> one;
    one.push_back(fakePoint("a", "dense_mvm", 100, 1'000'000));
    EXPECT_FALSE(evalAsserts(nobase, one, &failures, &err));
    EXPECT_NE(err.find("baseline_machine"), std::string::npos);
}

TEST(ReportAsserts, ParenthesesGroupSubexpressions)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n[report]\nbaseline_machine = a\n");
    std::vector<PointResult> results;
    results.push_back(fakePoint("a", "dense_mvm", 300, 1'000'000));
    results.push_back(fakePoint("b", "dense_mvm", 100, 2'000'000));

    std::vector<AssertFailure> failures;
    std::string err;

    // Without parens: 300 - 100 / 100 = 299. With: (300-100)/100 = 2.
    sc.report.asserts = {{"a.ticks - b.ticks / b.ticks == 299", 1},
                         {"( a.ticks - b.ticks ) / b.ticks == 2", 2},
                         // Parens may hug their operands.
                         {"(a.ticks - b.ticks) / b.ticks == 2", 3},
                         // Nesting composes.
                         {"( ( a.ticks - b.ticks ) / ( b.ticks ) ) "
                          "* 10 == 20",
                          4}};
    failures.clear();
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    EXPECT_TRUE(failures.empty()) << failures.size();

    // Unbalanced parens are hard errors, both ways.
    sc.report.asserts = {{"( a.ticks > 0", 5}};
    EXPECT_FALSE(evalAsserts(sc, results, &failures, &err));
    EXPECT_NE(err.find("expected ')'"), std::string::npos);
    sc.report.asserts = {{"a.ticks ) > 0", 6}};
    EXPECT_FALSE(evalAsserts(sc, results, &failures, &err));
}

TEST(ReportAsserts, EvaluatedPerCoordinateGroup)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.workers = 1, 2\n"
        "[report]\nbaseline_machine = a\nassert = b.speedup >= 2\n");

    std::vector<PointResult> results;
    results.push_back(
        fakePoint("a", "dense_mvm", 400, 1'000'000,
                  {{"workload.workers", "1"}}));
    results.push_back(
        fakePoint("b", "dense_mvm", 100, 1'000'000,
                  {{"workload.workers", "1"}})); // 4.0x: holds
    results.push_back(
        fakePoint("a", "dense_mvm", 300, 1'000'000,
                  {{"workload.workers", "2"}}));
    results.push_back(
        fakePoint("b", "dense_mvm", 200, 1'000'000,
                  {{"workload.workers", "2"}})); // 1.5x: fails

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

    std::vector<PointResult> results;
    results.push_back(fakePoint("a", "dense_mvm", 400, 1'000'000,
                                {{"workload.workers", "1"}}));
    results.push_back(fakePoint("b", "dense_mvm", 100, 1'000'000,
                                {{"workload.workers", "1"}}));
    results.push_back(fakePoint("a", "dense_mvm", 300, 1'000'000,
                                {{"workload.workers", "2"}}));
    results.push_back(fakePoint("b", "dense_mvm", 200, 1'000'000,
                                {{"workload.workers", "2"}}));
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

/** Load @p rows through MetricFrame::loadRows (the --merge-frames
 *  path); with @p baselineMachine, also the derived `speedup` column
 *  finalize() would add. */
harness::MetricFrame
loadFrame(const std::vector<FakeRow> &rows,
          const std::string &baselineMachine = "")
{
    std::vector<std::string> metrics = harness::MetricFrame().metrics();
    if (!baselineMachine.empty())
        metrics.push_back("speedup");
    std::vector<harness::MetricFrame::RawRow> raws;
    for (const FakeRow &f : rows) {
        harness::MetricFrame::RawRow raw;
        raw.row.machine = f.machine;
        raw.row.workload = "dense_mvm";
        for (const auto &c : f.coords) {
            if (c.first == "workload.name")
                raw.row.workload = c.second;
        }
        raw.row.coords = f.coords;
        raw.row.status = f.status;
        const bool done = f.status == harness::RunStatus::Completed;
        const double ticks = done ? f.ticks : 0.0;
        for (const std::string &m : metrics) {
            double v = 0;
            if (m == "ticks")
                v = ticks;
            else if (m == "mcycles")
                v = ticks / 1e6;
            else if (m == "insts")
                v = 2e6;
            else if (m == "valid")
                v = done && f.valid ? 1 : 0;
            else if (m == "completed")
                v = done ? 1 : 0;
            else if (m == "failed")
                v = harness::runStatusIsInfraFailure(f.status) ? 1 : 0;
            else if (m == "attempts")
                v = 1;
            else if (m == "events.ams_page_faults")
                v = ticks / 1e5;
            else if (m == "speedup") {
                for (const FakeRow &b : rows) {
                    if (b.machine == baselineMachine &&
                        b.coords == f.coords && done && ticks != 0)
                        v = b.ticks / ticks;
                }
            }
            raw.values.push_back(v);
        }
        raws.push_back(std::move(raw));
    }
    harness::MetricFrame frame;
    std::string err;
    EXPECT_TRUE(frame.loadRows(metrics, std::move(raws), &err)) << err;
    return frame;
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
    const harness::MetricFrame frame = loadFrame(twoMachineRows());

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
    EXPECT_EQ(renderTables(sc, loadFrame(rows), false),
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
    EXPECT_EQ(renderTables(sc, loadFrame(rows), false),
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
    EXPECT_EQ(renderTables(bOnly, loadFrame(rows), true),
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
    EXPECT_EQ(renderTables(sc, loadFrame(rows), false),
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

    // Frame-level: malformed or unresolvable expressions and footers
    // outside an aggregate are "path:line:" diagnostics, and nothing
    // is written — not even the tables before the bad one.
    const harness::MetricFrame frame = loadFrame(twoMachineRows());
    const std::string good = "[table]\ncolumn = ok = a.ticks\n";
    err = tableError(std::string(kTwoMachines) + good +
                         "[table]\ncolumn = bad = ( a.ticks / b.ticks\n",
                     frame);
    EXPECT_EQ(err.rfind("<test>:12: 'bad = ( a.ticks / b.ticks': "
                        "expected ')'",
                        0),
              0u)
        << err;
    err = tableError(std::string(kTwoMachines) +
                         "[table]\ncolumn = x = c.ticks\n",
                     frame);
    EXPECT_NE(err.find("<test>:10:"), std::string::npos) << err;
    EXPECT_NE(err.find("names no [machine] section"), std::string::npos)
        << err;
    err = tableError(std::string(kTwoMachines) +
                         "[table]\ncolumn = x = a.ticks b.ticks\n",
                     frame);
    EXPECT_NE(err.find("unexpected trailing token 'b.ticks'"),
              std::string::npos)
        << err;
    err = tableError(std::string(kTwoMachines) +
                         "[table]\ncolumn = x = a.ticks\n"
                         "footer = y = a.ticks\n",
                     frame);
    EXPECT_NE(err.find("<test>:11: footer 'y': per-point references must "
                       "sit inside an aggregate"),
              std::string::npos)
        << err;
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
    const harness::MetricFrame frame = loadFrame(rows, "a");
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
        std::string path = findScenarioFile(c.file, nullptr);
        ASSERT_FALSE(path.empty())
            << c.file << " not found (run from build/ or the repo root)";
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
    std::string path = findScenarioFile("table1.scn", nullptr);
    SpecFile spec;
    Scenario sc;
    std::string err;
    ASSERT_TRUE(SpecFile::parseFile(path, &spec, &err)) << err;
    ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_EQ(sc.tables.size(), 2u); // raw counts + per-10^6 view
    EXPECT_EQ(sc.report.asserts.size(), 4u);

    path = findScenarioFile("fig4.scn", nullptr);
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(SpecFile::parseFile(path, &spec, &err)) << err;
    ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_EQ(sc.report.asserts.size(), 5u);
}
