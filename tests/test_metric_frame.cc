/**
 * @file
 * MetricFrame tests: columnar construction and deterministic
 * iteration/serialization, the group/cross-axis/aggregate queries the
 * assert grammar compiles to, malformed-selector diagnostics (with
 * spec line numbers), assert-failure reference echoes, and
 * byte-equivalence of the frame-based emitters with the legacy
 * per-PointResult format.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "harness/metric_frame.hh"
#include "sim/logging.hh"

using namespace misp;
using namespace misp::driver;
using harness::MetricFrame;

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

/** A synthetic completed point with distinctive event counts. */
PointResult
fakePoint(const std::string &machine, const std::string &workload,
          Tick ticks, std::uint64_t insts,
          std::vector<std::pair<std::string, std::string>> coords = {})
{
    PointResult r;
    r.machine = machine;
    r.workload = workload;
    r.coords = std::move(coords);
    r.run.status = harness::RunStatus::Completed;
    r.run.ticks = ticks;
    r.run.valid = true;
    r.run.instsRetired = insts;
    r.run.events.omsPageFaults = 10;
    r.run.events.amsPageFaults = 40;
    r.run.events.serializeCycles = 12345.0;
    return r;
}

/** The two-machine x two-value grid most tests query: a is the
 *  baseline, b is 2x / 4x faster depending on the axis value. */
std::vector<PointResult>
twoAxisGrid()
{
    std::vector<PointResult> results;
    results.push_back(
        fakePoint("a", "dense_mvm", 400, 1'000'000, {{"workload.param.dim", "64"}}));
    results.push_back(
        fakePoint("b", "dense_mvm", 200, 1'000'000, {{"workload.param.dim", "64"}}));
    results.push_back(
        fakePoint("a", "dense_mvm", 800, 1'000'000, {{"workload.param.dim", "96"}}));
    results.push_back(
        fakePoint("b", "dense_mvm", 200, 1'000'000, {{"workload.param.dim", "96"}}));
    return results;
}

Scenario
twoAxisScenario()
{
    return mustScenario(
        "[machine a]\nams = 1\n[machine b]\nams = 3\n"
        "[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.param.dim = 64, 96\n"
        "[report]\nbaseline_machine = a\n");
}

/** Run the evaluator over a frame built the way mispsim builds it. */
bool
evalAsserts(const Scenario &sc, const std::vector<PointResult> &results,
            std::vector<AssertFailure> *failures, std::string *err,
            std::size_t *skipped = nullptr)
{
    failures->clear();
    return evaluateAsserts(sc, buildMetricFrame(sc, results), failures,
                           err, skipped);
}

/** A point whose worker failed for infrastructure reasons. */
PointResult
failedPoint(const std::string &machine, const std::string &workload,
            harness::RunStatus status, unsigned attempts,
            std::vector<std::pair<std::string, std::string>> coords = {})
{
    PointResult r;
    r.machine = machine;
    r.workload = workload;
    r.coords = std::move(coords);
    r.run.status = status;
    r.run.valid = false;
    r.run.attempts = attempts;
    r.run.note = "injected";
    return r;
}

/** twoAxisGrid() with b's dim=96 point lost to a worker crash. */
std::vector<PointResult>
degradedGrid()
{
    std::vector<PointResult> results = twoAxisGrid();
    results[3] = failedPoint("b", "dense_mvm",
                             harness::RunStatus::WorkerCrashed, 3,
                             {{"workload.param.dim", "96"}});
    return results;
}

} // namespace

// ---------------------------------------------------------------------
// Construction + determinism
// ---------------------------------------------------------------------

TEST(MetricFrame, ColumnarConstructionAndGroups)
{
    Scenario sc = twoAxisScenario();
    MetricFrame frame = buildMetricFrame(sc, twoAxisGrid());

    ASSERT_EQ(frame.numRows(), 4u);
    ASSERT_EQ(frame.numGroups(), 2u);
    EXPECT_EQ(frame.groupRows(0), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(frame.groupRows(1), (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(frame.groupLabel(0), "workload.param.dim=64");
    EXPECT_EQ(frame.row(3).group, 1u);

    // The fixed column set: scalars, events, events_per_mi, and the
    // derived speedup (baseline_machine is set).
    EXPECT_TRUE(frame.hasMetric("ticks"));
    EXPECT_TRUE(frame.hasMetric("mcycles"));
    EXPECT_TRUE(frame.hasMetric("events.oms_page_faults"));
    EXPECT_TRUE(frame.hasMetric("events_per_mi.ams_page_faults"));
    EXPECT_TRUE(frame.hasMetric("speedup"));
    EXPECT_FALSE(frame.hasMetric("nosuch"));

    EXPECT_DOUBLE_EQ(frame.at(0, "ticks"), 400.0);
    EXPECT_DOUBLE_EQ(frame.at(0, "mcycles"), 4e-4);
    EXPECT_DOUBLE_EQ(frame.at(0, "valid"), 1.0);
    EXPECT_DOUBLE_EQ(frame.at(0, "completed"), 1.0);
    EXPECT_DOUBLE_EQ(frame.at(0, "events.oms_page_faults"), 10.0);
    EXPECT_DOUBLE_EQ(frame.at(0, "events.serialize_cycles"), 12345.0);
    // 40 faults / 1 MInst.
    EXPECT_DOUBLE_EQ(frame.at(0, "events_per_mi.ams_page_faults"), 40.0);
    // Speedup within each group: b vs baseline a.
    EXPECT_DOUBLE_EQ(frame.at(1, "speedup"), 2.0);
    EXPECT_DOUBLE_EQ(frame.at(3, "speedup"), 4.0);
    EXPECT_DOUBLE_EQ(frame.at(0, "speedup"), 1.0);

    // Unknown metrics fail loudly for renderers.
    EXPECT_THROW(frame.at(0, "nosuch"), SimError);

    // value() is the non-fatal form.
    double v = 0;
    EXPECT_FALSE(frame.value(0, "nosuch", &v));
    EXPECT_TRUE(frame.value(2, "ticks", &v));
    EXPECT_DOUBLE_EQ(v, 800.0);
}

TEST(MetricFrame, NoBaselineMeansNoSpeedupColumn)
{
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[workload]\nname = dense_mvm\n");
    std::vector<PointResult> results;
    results.push_back(fakePoint("a", "dense_mvm", 100, 1'000'000));
    MetricFrame frame = buildMetricFrame(sc, results);
    EXPECT_FALSE(frame.hasMetric("speedup"));
}

TEST(MetricFrame, SpeedupIsZeroUnlessBothRunsCompleted)
{
    Scenario sc = twoAxisScenario();
    std::vector<PointResult> results = twoAxisGrid();
    results[0].run.status = harness::RunStatus::MaxTicksReached;
    MetricFrame frame = buildMetricFrame(sc, results);
    // Baseline of group 0 never completed: speedupOver semantics.
    EXPECT_DOUBLE_EQ(frame.at(1, "speedup"), 0.0);
    EXPECT_DOUBLE_EQ(frame.at(3, "speedup"), 4.0);
}

TEST(MetricFrame, DeterministicJsonSerialization)
{
    Scenario sc = twoAxisScenario();
    auto render = [&] {
        std::ostringstream os;
        buildMetricFrame(sc, twoAxisGrid()).writeJson(os);
        return os.str();
    };
    const std::string one = render();
    EXPECT_EQ(one, render());
    EXPECT_NE(one.find("\"metrics\": [\"ticks\", \"mcycles\""),
              std::string::npos);
    EXPECT_NE(one.find("\"status\": \"completed\""), std::string::npos);
    // Integral values print as integers, not 400.000000.
    EXPECT_NE(one.find("\"ticks\": 400"), std::string::npos);
    EXPECT_EQ(std::count(one.begin(), one.end(), '{'),
              std::count(one.begin(), one.end(), '}'));

    // The --metrics wrapper adds the scenario header around the frame.
    std::ostringstream full;
    writeMetricsJson(full, sc, /*quickMode=*/true,
                     buildMetricFrame(sc, twoAxisGrid()));
    EXPECT_NE(full.str().find("\"quick\": true"), std::string::npos);
    EXPECT_NE(full.str().find("\"frame\":"), std::string::npos);
}

// ---------------------------------------------------------------------
// Query surface
// ---------------------------------------------------------------------

TEST(MetricFrame, LookupQueries)
{
    Scenario sc = twoAxisScenario();
    MetricFrame frame = buildMetricFrame(sc, twoAxisGrid());

    EXPECT_EQ(frame.rowInGroup(1, "b"), 3u);
    EXPECT_EQ(frame.rowInGroup(1, "nosuch"), MetricFrame::npos);

    EXPECT_EQ(frame.findRow("b", {{"workload.param.dim", "96"}}), 3u);
    EXPECT_EQ(frame.findRow("b", {{"workload.param.dim", "128"}}), MetricFrame::npos);

    // Cross-axis: from group 0, the b row with workload.param.dim forced to 96.
    EXPECT_EQ(frame.rowWithOverrides(0, "b", {{"workload.param.dim", "96"}}), 3u);
    EXPECT_EQ(frame.rowWithOverrides(1, "b", {{"workload.param.dim", "64"}}), 1u);
    EXPECT_EQ(frame.rowWithOverrides(0, "b", {{"workload.param.dim", "77"}}),
              MetricFrame::npos);

    // Axis baseline: first grid value of the axis, same machine.
    EXPECT_EQ(frame.axisBaselineRow(3, "workload.param.dim"), 1u);
    EXPECT_EQ(frame.axisBaselineRow(1, "workload.param.dim"), 1u);
}

// ---------------------------------------------------------------------
// Aggregate grammar
// ---------------------------------------------------------------------

TEST(AssertGrammar, AggregatesFoldAcrossCoordinateGroups)
{
    Scenario sc = twoAxisScenario();
    std::vector<PointResult> results = twoAxisGrid();
    std::vector<AssertFailure> failures;
    std::string err;

    // a.ticks over the two groups: {400, 800}; b.speedup: {2, 4}.
    sc.report.asserts = {
        {"avg ( a.ticks ) == 600", 1},
        {"min ( a.ticks ) == 400", 2},
        {"max ( a.ticks ) == 800", 3},
        {"sum ( a.ticks ) == 1200", 4},
        {"count ( a.ticks ) == 2", 5},
        // geomean(2,4) = sqrt(8) ~ 2.828; parens may hug the body.
        // (== on the squared value would hit floating-point noise.)
        {"geomean(b.speedup) * geomean(b.speedup) >= 7.999", 6},
        {"geomean(b.speedup) * geomean(b.speedup) <= 8.001", 6},
        // Aggregate bodies are full expressions, evaluated per group.
        {"avg ( a.ticks / b.ticks ) == 3", 7},
        // Aggregates compose with arithmetic and nest.
        {"avg ( a.ticks ) + max ( a.ticks ) == 1400", 8},
        {"max ( a.ticks - avg ( a.ticks ) ) == 200", 9},
    };
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    EXPECT_TRUE(failures.empty()) << failures.front().detail;
}

TEST(AssertGrammar, AggregateOnlyAssertsEvaluateOncePerSweep)
{
    Scenario sc = twoAxisScenario();
    std::vector<AssertFailure> failures;
    std::string err;

    // A failing suite claim reports once (not once per group), names
    // the sweep, and echoes the per-group body values so the offending
    // points are identifiable.
    sc.report.asserts = {{"avg ( b.speedup ) >= 100", 42}};
    ASSERT_TRUE(evalAsserts(sc, twoAxisGrid(), &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].line, 42);
    EXPECT_NE(failures[0].detail.find("lhs=3"), std::string::npos);
    EXPECT_NE(failures[0].detail.find("the whole sweep"),
              std::string::npos);
    EXPECT_NE(failures[0].detail.find("b.speedup[workload.param.dim=64]=2"),
              std::string::npos);
    EXPECT_NE(failures[0].detail.find("b.speedup[workload.param.dim=96]=4"),
              std::string::npos);

    // A per-group assert mixing in an aggregate still evaluates per
    // group — the aggregate is a sweep-wide constant. b.speedup is
    // {2, 4}, avg is 3: only the workload.param.dim=64 group fails.
    sc.report.asserts = {{"b.speedup >= avg ( b.speedup )", 7}};
    ASSERT_TRUE(evalAsserts(sc, twoAxisGrid(), &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("at workload.param.dim=64"), std::string::npos);
    // The bare ref's value is echoed too.
    EXPECT_NE(failures[0].detail.find("b.speedup=2"), std::string::npos);
}

TEST(AssertGrammar, AggregateDiagnostics)
{
    Scenario sc = twoAxisScenario();
    std::vector<AssertFailure> failures;
    std::string err;

    // geomean over a non-positive value fails closed.
    std::vector<PointResult> results = twoAxisGrid();
    results[0].run.status = harness::RunStatus::MaxTicksReached;
    sc.report.asserts = {{"geomean ( b.speedup ) >= 1", 3}};
    EXPECT_FALSE(evalAsserts(sc, results, &failures, &err));
    EXPECT_NE(err.find("geomean"), std::string::npos);
    EXPECT_NE(err.find(":3:"), std::string::npos);

    // Unbalanced aggregate parens are hard errors with the line.
    sc.report.asserts = {{"avg ( b.ticks >= 1", 9}};
    EXPECT_FALSE(evalAsserts(sc, twoAxisGrid(), &failures, &err));
    EXPECT_NE(err.find(":9:"), std::string::npos);
    EXPECT_NE(err.find("expected ')'"), std::string::npos);

    // An aggregate name without '(' still resolves as a plain ref
    // (machines may be called avg); here there is no such machine.
    sc.report.asserts = {{"avg.ticks >= 1", 4}};
    EXPECT_FALSE(evalAsserts(sc, twoAxisGrid(), &failures, &err));
    EXPECT_NE(err.find("names no [machine] section"), std::string::npos);
}

// ---------------------------------------------------------------------
// Cross-axis selectors
// ---------------------------------------------------------------------

TEST(AssertGrammar, CrossAxisSelectors)
{
    Scenario sc = twoAxisScenario();
    std::vector<AssertFailure> failures;
    std::string err;

    sc.report.asserts = {
        // From every group, address the a rows of both axis values.
        {"a[workload.param.dim=96].ticks == 2 * a[workload.param.dim=64].ticks", 1},
        // Selector + aggregate: the body is constant across groups.
        {"avg ( a[workload.param.dim=96].ticks - a[workload.param.dim=64].ticks ) == 400", 2},
        // Metric grammar still applies behind a selector.
        {"b[workload.param.dim=96].speedup == 4", 3},
    };
    ASSERT_TRUE(evalAsserts(sc, twoAxisGrid(), &failures, &err)) << err;
    EXPECT_TRUE(failures.empty()) << failures.front().detail;
}

TEST(AssertGrammar, PinnedSelectorsEvaluateOncePerProjection)
{
    // Two axes; the assert pins workload.param.dim, so it depends on
    // the group only through machine (none here — single machine
    // section, values distinguished by coords). Build a 2x2 grid over
    // (w, workload.param.dim): the assert must be evaluated (and may
    // fail) once per distinct w, never once per (w, dim) pair, and
    // the failure label must name only the consulted axis.
    Scenario sc = mustScenario(
        "[machine a]\nams = 1\n[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.workers = 1, 2\n"
        "workload.param.dim = 64, 96\n");
    std::vector<PointResult> results;
    for (const char *w : {"1", "2"}) {
        for (const char *d : {"64", "96"}) {
            Tick ticks = (w[0] == '1' ? 100 : 200) +
                         (d[0] == '9' ? 1000 : 0);
            results.push_back(
                fakePoint("a", "dense_mvm", ticks, 1'000'000,
                          {{"workload.workers", w},
                           {"workload.param.dim", d}}));
        }
    }

    std::vector<AssertFailure> failures;
    std::string err;
    sc.report.asserts = {
        {"a[workload.param.dim=96].ticks < "
         "a[workload.param.dim=64].ticks",
         5}};
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    // 4 coordinate groups, 2 distinct projections onto the consulted
    // axis -> exactly 2 failures, labeled by workload.workers alone.
    ASSERT_EQ(failures.size(), 2u);
    EXPECT_NE(failures[0].detail.find("at workload.workers=1"),
              std::string::npos)
        << failures[0].detail;
    EXPECT_EQ(failures[0].detail.find("workload.param.dim=64 "),
              std::string::npos);
    EXPECT_NE(failures[1].detail.find("at workload.workers=2"),
              std::string::npos);

    // Pinning every axis makes the assert a whole-sweep claim:
    // evaluated once, one failure.
    sc.report.asserts = {
        {"a[workload.param.dim=96,workload.workers=1].ticks == 0", 6}};
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("the whole sweep"),
              std::string::npos);
}

TEST(AssertGrammar, MalformedSelectorDiagnosticsCarryLineNumbers)
{
    Scenario sc = twoAxisScenario();
    std::vector<AssertFailure> failures;
    std::string err;

    const struct {
        const char *expr;
        const char *want;
    } cases[] = {
        {"b[workload.param.dim].ticks >= 0", "is not axis=value"},
        {"b[=64].ticks >= 0", "is not axis=value"},
        {"b[nosuch=64].ticks >= 0", "names no sweep coordinate"},
        {"b[workload.param.dim=77].ticks >= 0",
         "matches no value of axis 'workload.param.dim' (values: 64, 96)"},
        {"b[workload.param.dim=64] >= 0", "expected '.<metric>' after ']'"},
        {"b[workload.param.dim=64.ticks >= 0", "missing ']'"},
        {"nosuch[workload.param.dim=64].ticks >= 0", "names no [machine] section"},
        {"b[workload.param.dim=64].nosuch >= 0", "unknown metric"},
        {"b[workload.param.dim=64].events.nosuch >= 0", "unknown event counter"},
    };
    for (const auto &c : cases) {
        sc.report.asserts = {{c.expr, 17}};
        EXPECT_FALSE(evalAsserts(sc, twoAxisGrid(), &failures, &err))
            << c.expr;
        EXPECT_NE(err.find(":17:"), std::string::npos) << err;
        EXPECT_NE(err.find(c.want), std::string::npos)
            << c.expr << " -> " << err;
    }
}

// ---------------------------------------------------------------------
// Graceful degradation: failed/attempts columns, aggregate skips, and
// the on_failed_points policy
// ---------------------------------------------------------------------

TEST(Degradation, FailedAndAttemptsColumnsTrackInfraFailures)
{
    Scenario sc = twoAxisScenario();
    MetricFrame frame = buildMetricFrame(sc, degradedGrid());

    EXPECT_EQ(frame.at(0, "failed"), 0.0);
    EXPECT_EQ(frame.at(0, "attempts"), 1.0);
    EXPECT_EQ(frame.at(3, "failed"), 1.0);
    EXPECT_EQ(frame.at(3, "attempts"), 3.0);

    ASSERT_EQ(frame.numGroups(), 2u);
    EXPECT_FALSE(frame.groupHasFailure(0));
    EXPECT_TRUE(frame.groupHasFailure(1));
}

TEST(Degradation, AggregatesSkipDegradedGroups)
{
    Scenario sc = twoAxisScenario();
    std::vector<AssertFailure> failures;
    std::string err;

    // Both sides exclude the degraded dim=96 group, so the suite
    // completeness claim still holds over the survivors.
    sc.report.asserts = {{"count ( b.completed ) == count ( 1 )", 3}};
    ASSERT_TRUE(evalAsserts(sc, degradedGrid(), &failures, &err)) << err;
    EXPECT_TRUE(failures.empty());

    // Folds see only the surviving group's values: avg(a.ticks) is
    // 400 (dim=64), not (400+800)/2 — a's dim=96 row completed but its
    // group is degraded.
    sc.report.asserts = {{"avg ( a.ticks ) == 400", 4}};
    ASSERT_TRUE(evalAsserts(sc, degradedGrid(), &failures, &err)) << err;
    EXPECT_TRUE(failures.empty());

    // A failing aggregate claim echoes the skipped-group count.
    sc.report.asserts = {{"avg ( a.ticks ) == 800", 5}};
    ASSERT_TRUE(evalAsserts(sc, degradedGrid(), &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("degraded groups skipped"),
              std::string::npos)
        << failures[0].detail;
}

TEST(Degradation, PolicyControlsEvaluationsOverFailedPoints)
{
    Scenario sc = twoAxisScenario();
    std::vector<AssertFailure> failures;
    std::string err;
    std::size_t skipped = 0;

    // Default (fail) and skip policies skip the evaluation at the
    // degraded group and count it; the claim would otherwise fail
    // there (a crashed point reads as ticks == 0).
    sc.report.asserts = {{"b.ticks > 0", 3}};
    ASSERT_TRUE(
        evalAsserts(sc, degradedGrid(), &failures, &err, &skipped))
        << err;
    EXPECT_TRUE(failures.empty());
    EXPECT_EQ(skipped, 1u);

    sc.report.onFailedPoints = FailedPointPolicy::Skip;
    ASSERT_TRUE(
        evalAsserts(sc, degradedGrid(), &failures, &err, &skipped))
        << err;
    EXPECT_TRUE(failures.empty());
    EXPECT_EQ(skipped, 1u);

    // require_all turns the degraded evaluation into an assert failure
    // naming the policy.
    sc.report.onFailedPoints = FailedPointPolicy::RequireAll;
    ASSERT_TRUE(
        evalAsserts(sc, degradedGrid(), &failures, &err, &skipped))
        << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("on_failed_points=require_all"),
              std::string::npos)
        << failures[0].detail;

    // A clean sweep skips nothing under any policy.
    sc.report.onFailedPoints = FailedPointPolicy::Fail;
    ASSERT_TRUE(
        evalAsserts(sc, twoAxisGrid(), &failures, &err, &skipped))
        << err;
    EXPECT_TRUE(failures.empty());
    EXPECT_EQ(skipped, 0u);
}

TEST(AssertGrammar, SelectorValuesNormalizeNumerically)
{
    Scenario sc = twoAxisScenario();
    std::vector<AssertFailure> failures;
    std::string err;

    // 9.6e1 addresses the axis value spelled `96`; 6.4e1 the value
    // spelled `64`. Exact spellings keep working.
    sc.report.asserts = {
        {"b[workload.param.dim=9.6e1].ticks == 200", 3},
        {"a[workload.param.dim=6.4e1].ticks == 400", 4},
        {"a[workload.param.dim=96].ticks == 800", 5},
    };
    ASSERT_TRUE(evalAsserts(sc, twoAxisGrid(), &failures, &err)) << err;
    EXPECT_TRUE(failures.empty()) << failures[0].detail;
}

// ---------------------------------------------------------------------
// Emitter byte-equivalence with the legacy per-PointResult format
// ---------------------------------------------------------------------

TEST(FrameEmitters, JsonMatchesLegacyFormatByteForByte)
{
    Scenario sc = twoAxisScenario();
    std::vector<PointResult> results = twoAxisGrid();
    MetricFrame frame = buildMetricFrame(sc, results);

    std::ostringstream os;
    writeJson(os, sc, /*quickMode=*/false, frame);

    // The legacy emitter walked the PointResults directly; the frame
    // renderer must reproduce it byte for byte (CI diffs depend on
    // it). Reconstruct the old format from the raw records here.
    std::ostringstream want;
    want << "{\n  \"scenario\": \"scenario\",\n  \"title\": \"\",\n"
         << "  \"quick\": false,\n  \"points\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult &r = results[i];
        want << (i ? ",\n" : "\n") << "    {\n"
             << "      \"machine\": \"" << r.machine << "\",\n"
             << "      \"workload\": \"" << r.workload << "\",\n"
             << "      \"competitors\": " << r.competitors << ",\n"
             << "      \"coords\": {\"workload.param.dim\": \"" << r.coords[0].second
             << "\"},\n"
             << "      \"status\": \"completed\",\n"
             << "      \"ticks\": " << r.run.ticks << ",\n"
             << "      \"valid\": true,\n"
             << "      \"insts_retired\": " << r.run.instsRetired
             << ",\n      \"events\": {\n";
        const std::vector<harness::EventField> &fields =
            harness::eventFields();
        for (std::size_t f = 0; f < fields.size(); ++f) {
            double v = fields[f].get(r.run.events);
            want << "        \"" << fields[f].name << "\": ";
            if (fields[f].cycles) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.0f", v);
                want << buf;
            } else {
                want << static_cast<std::uint64_t>(v);
            }
            want << (f + 1 < fields.size() ? ",\n" : "\n");
        }
        want << "      }\n    }";
    }
    want << "\n  ]\n}\n";
    EXPECT_EQ(os.str(), want.str());
}

TEST(FrameEmitters, PointsLinesMatchLegacyFormat)
{
    Scenario sc = twoAxisScenario();
    MetricFrame frame = buildMetricFrame(sc, twoAxisGrid());
    std::ostringstream os;
    writePoints(os, frame);
    EXPECT_EQ(os.str(),
              "machine=a workload=dense_mvm competitors=0 coords=workload.param.dim=64 "
              "ticks=400 valid=1\n"
              "machine=b workload=dense_mvm competitors=0 coords=workload.param.dim=64 "
              "ticks=200 valid=1\n"
              "machine=a workload=dense_mvm competitors=0 coords=workload.param.dim=96 "
              "ticks=800 valid=1\n"
              "machine=b workload=dense_mvm competitors=0 coords=workload.param.dim=96 "
              "ticks=200 valid=1\n");
}
