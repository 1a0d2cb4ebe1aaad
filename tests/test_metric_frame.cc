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

#include <algorithm>
#include <sstream>

#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/shard.hh"
#include "harness/metric_frame.hh"
#include "point_fixtures.hh"
#include "sim/logging.hh"
#include "snapshot/serialize.hh"
#include "snapshot/snapshot.hh"

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

/** A synthetic completed run with distinctive event counts. */
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
    r.events[harness::EventCounter::SerializeCycles] = 12345.0;
    return r;
}

/** Ends in its [report] section, so asserts may be appended. */
const char *const kTwoAxisSpec =
    "[machine a]\nams = 1\n[machine b]\nams = 3\n"
    "[workload]\nname = dense_mvm\n"
    "[sweep]\nworkload.param.dim = 64, 96\n"
    "[report]\nbaseline_machine = a\n";

/** @p spec (ending in a [report] section) with one `assert =` line per
 *  entry of @p asserts appended, compiled by Scenario::fromSpec. */
Scenario
withAsserts(const std::string &spec, const std::vector<std::string> &asserts)
{
    std::string text = spec;
    for (const std::string &a : asserts)
        text += "assert = " + a + "\n";
    return mustScenario(text);
}

Scenario
twoAxisScenario(const std::vector<std::string> &asserts = {})
{
    return withAsserts(kTwoAxisSpec, asserts);
}

/** The two-machine x two-value grid most tests query: a is the
 *  baseline, b is 2x / 4x faster depending on the axis value. Rows
 *  (a, 64), (b, 64), (a, 96), (b, 96). */
std::vector<PointResult>
twoAxisGrid()
{
    std::vector<PointResult> results = test::gridResults(twoAxisScenario());
    const Tick ticks[] = {400, 200, 800, 200};
    for (std::size_t i = 0; i < results.size(); ++i)
        results[i].run = fakeRun(ticks[i], 1'000'000);
    return results;
}

/** The diagnostic Scenario::fromSpec gives for @p spec plus the line
 *  @p entry; checks it fails and names that line. */
std::string
loadError(const std::string &spec, const std::string &entry)
{
    const std::string text = spec + entry + "\n";
    SpecFile file;
    Scenario sc;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(text, "<test>", &file, &err)) << err;
    EXPECT_FALSE(Scenario::fromSpec(file, &sc, &err)) << entry;
    const auto line = std::count(text.begin(), text.end(), '\n');
    EXPECT_NE(err.find(":" + std::to_string(line) + ":"), std::string::npos)
        << err;
    return err;
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

/** A run whose worker failed for infrastructure reasons. */
harness::RunRecord
failedRun(harness::RunStatus status, unsigned attempts)
{
    harness::RunRecord r;
    r.status = status;
    r.valid = false;
    r.attempts = attempts;
    r.note = "injected";
    return r;
}

/** twoAxisGrid() with b's dim=96 point lost to a worker crash. */
std::vector<PointResult>
degradedGrid()
{
    std::vector<PointResult> results = twoAxisGrid();
    results[3].run = failedRun(harness::RunStatus::WorkerCrashed, 3);
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
    auto rowsOf = [&](std::size_t g) {
        std::vector<std::size_t> rows;
        for (std::size_t r : frame.groupRows(g))
            rows.push_back(r);
        return rows;
    };
    EXPECT_EQ(rowsOf(0), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(rowsOf(1), (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(frame.groupLabel(0), "workload.param.dim=64");
    EXPECT_EQ(frame.groupOf(3), 1u);

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
    std::vector<PointResult> results = test::gridResults(sc);
    ASSERT_EQ(results.size(), 1u);
    results[0].run = fakeRun(100, 1'000'000);
    MetricFrame frame = buildMetricFrame(sc, results);
    EXPECT_FALSE(frame.hasMetric("speedup"));
    EXPECT_EQ(std::count(frame.metrics().begin(), frame.metrics().end(),
                         "speedup"),
              0);
}

TEST(MetricFrame, SpeedupIsZeroUnlessBothRunsCompleted)
{
    Scenario sc = twoAxisScenario();
    std::vector<PointResult> results = twoAxisGrid();
    results[0].run.status = harness::RunStatus::MaxTicksReached;
    MetricFrame frame = buildMetricFrame(sc, results);
    // Baseline of group 0 never completed: no speedup.
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

    // Cross-axis: from group 0, the b row with workload.param.dim forced to 96.
    EXPECT_EQ(frame.rowWithOverrides(0, "b", {{"workload.param.dim", "96"}}), 3u);
    EXPECT_EQ(frame.rowWithOverrides(1, "b", {{"workload.param.dim", "64"}}), 1u);
    EXPECT_EQ(frame.rowWithOverrides(0, "b", {{"workload.param.dim", "77"}}),
              MetricFrame::npos);

    // Axis baseline: first grid value of the axis, same machine.
    EXPECT_EQ(frame.axisBaselineRow(3, "workload.param.dim"), 1u);
    EXPECT_EQ(frame.axisBaselineRow(1, "workload.param.dim"), 1u);
}

TEST(MetricFrame, ShardFrameHasNoBaselineInTheOtherShard)
{
    // --shard k/2 deals whole groups j mod 2: shard 1 holds only the
    // dim=96 group, whose baseline_axis row (dim=64) lives in shard 0.
    Scenario sc = twoAxisScenario();
    const std::vector<PointResult> all = twoAxisGrid();
    auto shardFrame = [&](std::size_t k) {
        std::vector<PointResult> owned;
        for (std::size_t i : shardPointIndices({k, 2}, all.size(), 2))
            owned.push_back(all[i]);
        return buildMetricFrame(sc, owned);
    };

    const MetricFrame one = shardFrame(1);
    ASSERT_EQ(one.numRows(), 2u);
    ASSERT_EQ(one.numGroups(), 1u);
    EXPECT_EQ(one.combo(0), 1u);
    EXPECT_EQ(one.groupLabel(0), "workload.param.dim=96");
    EXPECT_EQ(one.at(1, "ticks"), 200.0);
    EXPECT_EQ(one.axisBaselineRow(1, "workload.param.dim"), MetricFrame::npos);
    EXPECT_EQ(one.rowWithOverrides(0, "b", {{"workload.param.dim", "64"}}),
              MetricFrame::npos);
    EXPECT_EQ(one.rowWithOverrides(0, "b", {{"workload.param.dim", "96"}}), 1u);
    EXPECT_EQ(one.at(1, "speedup"), 4.0);

    // Shard 0 holds the baseline group itself.
    const MetricFrame zero = shardFrame(0);
    ASSERT_EQ(zero.numGroups(), 1u);
    EXPECT_EQ(zero.axisBaselineRow(1, "workload.param.dim"), 1u);
}

TEST(MetricFrame, BuildRequiresWholeGroupsInGridOrder)
{
    Scenario sc = twoAxisScenario();
    std::vector<PointResult> results = twoAxisGrid();
    std::vector<PointResult> partial(results.begin(), results.begin() + 3);
    EXPECT_THROW(buildMetricFrame(sc, partial), SimError);
    std::vector<PointResult> swapped = results;
    std::swap(swapped[0], swapped[1]);
    EXPECT_THROW(buildMetricFrame(sc, swapped), SimError);
    std::vector<PointResult> reversed = {results[2], results[3], results[0],
                                         results[1]};
    EXPECT_THROW(buildMetricFrame(sc, reversed), SimError);
    std::vector<PointResult> foreign = results;
    foreign[3].coords = test::gridResults(sc)[3].coords; // another expansion
    EXPECT_THROW(buildMetricFrame(sc, foreign), SimError);
}

// ---------------------------------------------------------------------
// Aggregate grammar
// ---------------------------------------------------------------------

TEST(AssertGrammar, AggregatesFoldAcrossCoordinateGroups)
{
    // a.ticks over the two groups: {400, 800}; b.speedup: {2, 4}.
    Scenario sc = twoAxisScenario({
        "avg ( a.ticks ) == 600",
        "min ( a.ticks ) == 400",
        "max ( a.ticks ) == 800",
        "sum ( a.ticks ) == 1200",
        "count ( a.ticks ) == 2",
        // geomean(2,4) = sqrt(8) ~ 2.828; parens may hug the body.
        // (== on the squared value would hit floating-point noise.)
        "geomean(b.speedup) * geomean(b.speedup) >= 7.999",
        "geomean(b.speedup) * geomean(b.speedup) <= 8.001",
        // Aggregate bodies are full expressions, evaluated per group.
        "avg ( a.ticks / b.ticks ) == 3",
        // Aggregates compose with arithmetic and nest.
        "avg ( a.ticks ) + max ( a.ticks ) == 1400",
        "max ( a.ticks - avg ( a.ticks ) ) == 200",
    });
    std::vector<PointResult> results = twoAxisGrid();
    std::vector<AssertFailure> failures;
    std::string err;
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    EXPECT_TRUE(failures.empty()) << failures.front().detail;
}

TEST(AssertGrammar, AggregateOnlyAssertsEvaluateOncePerSweep)
{
    std::vector<AssertFailure> failures;
    std::string err;

    // A failing suite claim reports once (not once per group), names
    // the sweep, and echoes the per-group body values so the offending
    // points are identifiable.
    Scenario sc = twoAxisScenario({"avg ( b.speedup ) >= 100"});
    ASSERT_TRUE(evalAsserts(sc, twoAxisGrid(), &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].line, 11);
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
    sc = twoAxisScenario({"b.speedup >= avg ( b.speedup )"});
    ASSERT_TRUE(evalAsserts(sc, twoAxisGrid(), &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("at workload.param.dim=64"), std::string::npos);
    // The bare ref's value is echoed too.
    EXPECT_NE(failures[0].detail.find("b.speedup=2"), std::string::npos);
}

TEST(AssertGrammar, AggregateDiagnostics)
{
    std::vector<AssertFailure> failures;
    std::string err;

    // geomean over a non-positive value fails closed when evaluated:
    // it depends on the sweep's values.
    Scenario sc = twoAxisScenario({"geomean ( b.speedup ) >= 1"});
    std::vector<PointResult> results = twoAxisGrid();
    results[0].run.status = harness::RunStatus::MaxTicksReached;
    EXPECT_FALSE(evalAsserts(sc, results, &failures, &err));
    EXPECT_NE(err.find("geomean"), std::string::npos);
    EXPECT_NE(err.find(":11:"), std::string::npos);

    // Unbalanced aggregate parens are rejected when the spec loads,
    // naming the paren rather than the unknown metric inside it.
    err = loadError(kTwoAxisSpec, "assert = avg ( b.ticks >= 1");
    EXPECT_NE(err.find("expected ')' closing avg(...), got '>='"),
              std::string::npos)
        << err;
    err = loadError(kTwoAxisSpec, "assert = avg( b.Mcycles  >= 1");
    EXPECT_NE(err.find("expected ')' closing avg(...), got '>='"),
              std::string::npos)
        << err;

    // An aggregate name without '(' still resolves as a plain ref
    // (machines may be called avg); here there is no such machine.
    err = loadError(kTwoAxisSpec, "assert = avg.ticks >= 1");
    EXPECT_NE(err.find("names no [machine] section"), std::string::npos);
}

// ---------------------------------------------------------------------
// Cross-axis selectors
// ---------------------------------------------------------------------

TEST(AssertGrammar, CrossAxisSelectors)
{
    Scenario sc = twoAxisScenario({
        // From every group, address the a rows of both axis values.
        "a[workload.param.dim=96].ticks == 2 * a[workload.param.dim=64].ticks",
        // Selector + aggregate: the body is constant across groups.
        "avg ( a[workload.param.dim=96].ticks - a[workload.param.dim=64].ticks ) == 400",
        // Metric grammar still applies behind a selector.
        "b[workload.param.dim=96].speedup == 4",
    });
    std::vector<AssertFailure> failures;
    std::string err;
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
    const std::string spec =
        "[machine a]\nams = 1\n[workload]\nname = dense_mvm\n"
        "[sweep]\nworkload.workers = 1, 2\n"
        "workload.param.dim = 64, 96\n[report]\n";
    std::vector<PointResult> results = test::gridResults(mustScenario(spec));
    ASSERT_EQ(results.size(), 4u);
    for (PointResult &r : results) {
        const std::string &w = r.coords.value(0);
        const std::string &d = r.coords.value(1);
        const Tick ticks = (w == "1" ? 100 : 200) + (d == "96" ? 1000 : 0);
        r.run = fakeRun(ticks, 1'000'000);
    }

    std::vector<AssertFailure> failures;
    std::string err;
    Scenario sc = withAsserts(spec, {"a[workload.param.dim=96].ticks < "
                                     "a[workload.param.dim=64].ticks"});
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
    sc = withAsserts(
        spec, {"a[workload.param.dim=96,workload.workers=1].ticks == 0"});
    ASSERT_TRUE(evalAsserts(sc, results, &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("the whole sweep"),
              std::string::npos);
}

TEST(AssertGrammar, MalformedSelectorDiagnosticsCarryLineNumbers)
{
    // Malformed selectors and unknown names fail when the spec loads.
    const struct {
        const char *expr;
        const char *want;
    } cases[] = {
        {"b[workload.param.dim].ticks >= 0", "is not axis=value"},
        {"b[=64].ticks >= 0", "is not axis=value"},
        {"b[nosuch=64].ticks >= 0", "names no sweep coordinate"},
        {"b[workload.param.dim=64] >= 0", "expected '.<metric>' after ']'"},
        {"b[workload.param.dim=64.ticks >= 0", "missing ']'"},
        {"nosuch[workload.param.dim=64].ticks >= 0", "names no [machine] section"},
        {"b[workload.param.dim=64].nosuch >= 0", "unknown metric"},
        {"b[workload.param.dim=64].events.nosuch >= 0", "unknown event counter"},
    };
    for (const auto &c : cases) {
        const std::string err =
            loadError(kTwoAxisSpec, std::string("assert = ") + c.expr);
        EXPECT_NE(err.find(c.want), std::string::npos)
            << c.expr << " -> " << err;
    }

    // A selector value is matched against the frame's axis values, so
    // one matching none fails when evaluated.
    Scenario sc = twoAxisScenario({"b[workload.param.dim=77].ticks >= 0"});
    std::vector<AssertFailure> failures;
    std::string err;
    EXPECT_FALSE(evalAsserts(sc, twoAxisGrid(), &failures, &err));
    EXPECT_NE(err.find(":11:"), std::string::npos) << err;
    EXPECT_NE(err.find("matches no value of axis 'workload.param.dim' "
                       "(values: 64, 96)"),
              std::string::npos)
        << err;
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
    std::vector<AssertFailure> failures;
    std::string err;

    // Both sides exclude the degraded dim=96 group, so the suite
    // completeness claim still holds over the survivors.
    Scenario sc = twoAxisScenario({"count ( b.completed ) == count ( 1 )"});
    ASSERT_TRUE(evalAsserts(sc, degradedGrid(), &failures, &err)) << err;
    EXPECT_TRUE(failures.empty());

    // Folds see only the surviving group's values: avg(a.ticks) is
    // 400 (dim=64), not (400+800)/2 — a's dim=96 row completed but its
    // group is degraded.
    sc = twoAxisScenario({"avg ( a.ticks ) == 400"});
    ASSERT_TRUE(evalAsserts(sc, degradedGrid(), &failures, &err)) << err;
    EXPECT_TRUE(failures.empty());

    // A failing aggregate claim echoes the skipped-group count.
    sc = twoAxisScenario({"avg ( a.ticks ) == 800"});
    ASSERT_TRUE(evalAsserts(sc, degradedGrid(), &failures, &err)) << err;
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures[0].detail.find("degraded groups skipped"),
              std::string::npos)
        << failures[0].detail;
}

TEST(Degradation, PolicyControlsEvaluationsOverFailedPoints)
{
    std::vector<AssertFailure> failures;
    std::string err;
    std::size_t skipped = 0;

    // Default (fail) and skip policies skip the evaluation at the
    // degraded group and count it; the claim would otherwise fail
    // there (a crashed point reads as ticks == 0).
    Scenario sc = twoAxisScenario({"b.ticks > 0"});
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
    // 9.6e1 addresses the axis value spelled `96`; 6.4e1 the value
    // spelled `64`. Exact spellings keep working.
    Scenario sc = twoAxisScenario({
        "b[workload.param.dim=9.6e1].ticks == 200",
        "a[workload.param.dim=6.4e1].ticks == 400",
        "a[workload.param.dim=96].ticks == 800",
    });
    std::vector<AssertFailure> failures;
    std::string err;
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
    writeJson(os, sc, /*quickMode=*/false, frame, test::statsOf(results));

    // The legacy emitter walked the PointResults directly; the frame
    // renderer must reproduce it byte for byte (CI diffs depend on
    // it). Reconstruct the old format from the raw records here.
    std::ostringstream want;
    want << "{\n  \"scenario\": \"scenario\",\n  \"title\": \"\",\n"
         << "  \"quick\": false,\n  \"points\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult &r = results[i];
        want << (i ? ",\n" : "\n") << "    {\n"
             << "      \"machine\": \"" << r.coords.machine() << "\",\n"
             << "      \"workload\": \"" << r.coords.workload() << "\",\n"
             << "      \"competitors\": " << r.coords.competitors() << ",\n"
             << "      \"coords\": {\"workload.param.dim\": \"" << r.coords.value(0)
             << "\"},\n"
             << "      \"status\": \"completed\",\n"
             << "      \"ticks\": " << r.run.ticks << ",\n"
             << "      \"valid\": true,\n"
             << "      \"insts_retired\": " << r.run.instsRetired
             << ",\n      \"events\": {\n";
        for (std::size_t f = 0; f < harness::kNumEventCounters; ++f) {
            const harness::EventCounterInfo &c = harness::kEventCounters[f];
            double v = r.run.events[f];
            want << "        \"" << c.name << "\": ";
            if (c.kind == harness::EventKind::Cycles) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%.0f", v);
                want << buf;
            } else {
                want << static_cast<std::uint64_t>(v);
            }
            want << (f + 1 < harness::kNumEventCounters ? ",\n" : "\n");
        }
        want << "      }\n    }";
    }
    want << "\n  ]\n}\n";
    EXPECT_EQ(os.str(), want.str());
}

TEST(CounterTable, NamesAndKindsAreTheFrameColumnsAndTheWireFields)
{
    // The frame's event columns are the table's names, in table
    // order, raw then per 10^6 instructions.
    MetricFrame empty;
    std::vector<std::string> raw, perMi;
    for (const std::string &m : empty.metrics()) {
        if (m.rfind("events.", 0) == 0)
            raw.push_back(m.substr(7));
        else if (m.rfind("events_per_mi.", 0) == 0)
            perMi.push_back(m.substr(14));
    }
    std::vector<std::string> names;
    for (const harness::EventCounterInfo &c : harness::kEventCounters)
        names.push_back(c.name);
    EXPECT_EQ(raw, names);
    EXPECT_EQ(perMi, names);

    // Kinds: a count renders truncated to an integer, a cycle sum
    // rounded by %.0f, so 2.75 shows as 2 or 3.
    Scenario sc = twoAxisScenario();
    std::vector<PointResult> results = test::gridResults(sc);
    for (PointResult &r : results) {
        r.run = fakeRun(100, 1000);
        r.run.events.fill(2.75);
    }
    std::ostringstream os;
    writeJson(os, sc, /*quickMode=*/false, buildMetricFrame(sc, results),
              test::statsOf(results));
    for (std::size_t i = 0; i < harness::kNumEventCounters; ++i) {
        const harness::EventCounterInfo &c = harness::kEventCounters[i];
        bool cycles = c.kind == harness::EventKind::Cycles;
        std::string want = std::string("\"") + c.name + "\": " +
                           (cycles ? "3" : "2") +
                           (i + 1 < harness::kNumEventCounters ? ",\n"
                                                               : "\n");
        EXPECT_NE(os.str().find(want), std::string::npos) << want;
    }

    // Wire codec: one count, then one f64 per row in table order.
    harness::RunRecord rec;
    for (std::size_t i = 0; i < harness::kNumEventCounters; ++i)
        rec.events[i] = double(i + 1);
    rec.instsRetired = 4242;
    snap::Deserializer d(snap::encodeRunRecord(rec));
    d.openSection(0);
    d.u8();
    d.u64();
    d.b();
    EXPECT_EQ(d.u64(), harness::kNumEventCounters);
    for (std::size_t i = 0; i < harness::kNumEventCounters; ++i)
        EXPECT_EQ(d.f64(), double(i + 1))
            << harness::kEventCounters[i].name;
    EXPECT_EQ(d.u64(), 4242u);
}

TEST(FrameEmitters, JsonRejectsResultsOfAnotherSweep)
{
    // writeJson reads each row's --full-stats dump from the stats side
    // table by row index, so the two must be the same sweep's.
    Scenario sc = twoAxisScenario();
    std::vector<PointResult> results = twoAxisGrid();
    MetricFrame frame = buildMetricFrame(sc, results);
    results.pop_back();
    std::ostringstream os;
    EXPECT_THROW(writeJson(os, sc, false, frame, test::statsOf(results)),
                 SimError);
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
