/**
 * @file
 * Supervised --isolate execution tests: the deterministic
 * fault-injection plan (grammar, diagnostics, seeded probability
 * schedules), per-point deadlines (hung workers SIGKILLed into
 * RunStatus::WorkerTimeout), bounded retry/backoff (transient faults
 * recover, persistent faults exhaust the budget with attempt
 * accounting), and the graceful-degradation contract: a chaos sweep's
 * surviving points are byte-identical to a clean serial run.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "driver/faults.hh"
#include "driver/runner.hh"
#include "point_fixtures.hh"
#include "sim/logging.hh"

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

/** Three fast grid points (workload.workers = 1, 2, 3). */
const char *kSupervisorScn = R"(
[scenario]
name = supervisor_test

[machine misp]
ams = 3
phys_frames = 65536

[workload]
name = dense_mvm

[sweep]
workload.workers = 1, 2, 3
)";

std::vector<PointResult>
runSupervised(const RunnerOptions &opts, Scenario *scOut = nullptr)
{
    SpecFile spec;
    Scenario sc;
    std::vector<ScenarioPoint> pts;
    std::string err;
    EXPECT_TRUE(SpecFile::parse(kSupervisorScn, "<test>", &spec, &err))
        << err;
    EXPECT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    EXPECT_TRUE(sc.expandPoints(false, &pts, &err)) << err;
    if (scOut)
        *scOut = sc;
    return ScenarioRunner(opts).runAll(sc, pts);
}

// Sanitized workers run several times slower than native ones; a
// deadline tuned to catch a deliberately hung worker quickly must not
// also catch a healthy-but-instrumented one.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr int kDeadlineScale = 8;
#else
constexpr int kDeadlineScale = 1;
#endif

RunnerOptions
chaosOptions(const std::string &inject, int retries = 0)
{
    RunnerOptions opts;
    opts.hostLines = false;
    opts.isolate = true;
    opts.jobs = 2;
    opts.retries = retries;
    opts.backoffMs = 1;
    std::string err;
    EXPECT_TRUE(FaultPlan::parse(inject, &opts.faults, &err)) << err;
    return opts;
}

} // namespace

// ---------------------------------------------------------------------
// Fault plan grammar
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesKindsTargetsAndAttemptBounds)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse(
                    "seed=42;crash@0,2;hang@p0.25;corrupt_pipe@1..3x2;"
                    "fork_fail@4x*",
                    &plan, &err))
        << err;
    EXPECT_TRUE(plan.seedSet);
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.rules.size(), 4u);

    EXPECT_EQ(plan.rules[0].kind, FaultKind::Crash);
    EXPECT_EQ(plan.rules[0].points,
              (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(plan.rules[0].times, FaultRule::kAlways);

    EXPECT_EQ(plan.rules[1].kind, FaultKind::Hang);
    EXPECT_TRUE(plan.rules[1].points.empty());
    EXPECT_DOUBLE_EQ(plan.rules[1].probability, 0.25);

    EXPECT_EQ(plan.rules[2].kind, FaultKind::CorruptPipe);
    EXPECT_EQ(plan.rules[2].points,
              (std::vector<std::size_t>{1, 2, 3}));
    EXPECT_EQ(plan.rules[2].times, 2u);

    EXPECT_EQ(plan.rules[3].kind, FaultKind::ForkFail);
    EXPECT_EQ(plan.rules[3].times, FaultRule::kAlways);

    // toString is round-trippable.
    FaultPlan again;
    ASSERT_TRUE(FaultPlan::parse(plan.toString(), &again, &err)) << err;
    EXPECT_EQ(again.toString(), plan.toString());
}

TEST(FaultPlan, MalformedSpecDiagnostics)
{
    const struct {
        const char *spec;
        const char *want;
    } cases[] = {
        {"", "empty --inject spec"},
        {";;", "empty --inject spec"},
        {"explode@0", "unknown fault kind"},
        {"crash", "want kind@points"},
        {"crash@", "has no target"},
        {"crash@p1.5", "probability"},
        {"crash@pzap", "bad point index"},
        {"crash@1,zz", "index"},
        {"crash@1x0", "attempt bound"},
        {"seed=notanumber", "seed"},
    };
    for (const auto &c : cases) {
        FaultPlan plan;
        std::string err;
        EXPECT_FALSE(FaultPlan::parse(c.spec, &plan, &err)) << c.spec;
        EXPECT_NE(err.find(c.want), std::string::npos)
            << c.spec << " -> " << err;
    }
}

TEST(FaultPlan, ScheduleIsDeterministicAndAttemptBounded)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse("seed=9;crash@p0.5", &plan, &err))
        << err;

    // The seeded probability schedule is a pure function of
    // (seed, rule, point): the same plan always picks the same points,
    // and a retry (higher attempt) sees the same decision — otherwise
    // a probabilistic fault would dissolve under retries.
    std::size_t fired = 0;
    for (std::size_t p = 0; p < 64; ++p) {
        FaultKind k1, k2;
        bool hit1 = plan.faultFor(p, 1, &k1);
        bool hit2 = plan.faultFor(p, 2, &k2);
        EXPECT_EQ(hit1, hit2) << "point " << p;
        if (hit1) {
            ++fired;
            EXPECT_EQ(k1, FaultKind::Crash);
        }
    }
    // p0.5 over 64 points: astronomically unlikely to be all-or-none.
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, 64u);

    // An attempt-bounded rule stops firing past its bound.
    FaultPlan bounded;
    ASSERT_TRUE(FaultPlan::parse("hang@1x2", &bounded, &err)) << err;
    FaultKind kind;
    EXPECT_TRUE(bounded.faultFor(1, 1, &kind));
    EXPECT_TRUE(bounded.faultFor(1, 2, &kind));
    EXPECT_FALSE(bounded.faultFor(1, 3, &kind));
    EXPECT_FALSE(bounded.faultFor(0, 1, &kind));
}

TEST(FaultPlan, MergePrefersExplicitSeedAndAppendsRules)
{
    FaultPlan spec, cli;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse("seed=1;crash@0", &spec, &err)) << err;
    ASSERT_TRUE(FaultPlan::parse("seed=2;hang@1", &cli, &err)) << err;
    spec.merge(cli);
    EXPECT_EQ(spec.seed, 2u);
    ASSERT_EQ(spec.rules.size(), 2u);
    EXPECT_EQ(spec.rules[0].kind, FaultKind::Crash);
    EXPECT_EQ(spec.rules[1].kind, FaultKind::Hang);

    // A CLI plan without an explicit seed leaves the spec's seed alone.
    FaultPlan noSeed;
    ASSERT_TRUE(FaultPlan::parse("fork_fail@2", &noSeed, &err)) << err;
    spec.merge(noSeed);
    EXPECT_EQ(spec.seed, 2u);
}

// ---------------------------------------------------------------------
// Supervised execution: deadlines, retries, fault kinds
// ---------------------------------------------------------------------

TEST(Supervisor, HungWorkerIsKilledAtDeadline)
{
    // A healthy point takes tens of milliseconds unloaded; the deadline
    // leaves room for a heavily loaded host (a parallel ctest run)
    // while the hung point still has to be killed.
    RunnerOptions opts = chaosOptions("hang@1");
    opts.deadlineMs = 2000 * kDeadlineScale;
    std::vector<PointResult> results = runSupervised(opts);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].run.ok());
    EXPECT_EQ(results[1].run.status, harness::RunStatus::WorkerTimeout);
    EXPECT_NE(results[1].run.note.find("deadline"), std::string::npos)
        << results[1].run.note;
    EXPECT_EQ(results[1].run.attempts, 1u);
    EXPECT_TRUE(results[2].run.ok());
}

TEST(Supervisor, TransientCrashRetriesThenSucceeds)
{
    // crash@1x1: the fault fires only on attempt 1, so one retry
    // recovers the point.
    RunnerOptions opts = chaosOptions("crash@1x1", /*retries=*/1);
    std::vector<PointResult> results = runSupervised(opts);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[1].run.ok());
    EXPECT_EQ(results[1].run.attempts, 2u);
    EXPECT_EQ(results[0].run.attempts, 1u);
    EXPECT_EQ(results[2].run.attempts, 1u);
}

TEST(Supervisor, PersistentCrashExhaustsRetryBudget)
{
    RunnerOptions opts = chaosOptions("crash@1", /*retries=*/2);
    std::vector<PointResult> results = runSupervised(opts);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[1].run.status, harness::RunStatus::WorkerCrashed);
    EXPECT_EQ(results[1].run.attempts, 3u);
    EXPECT_NE(results[1].run.note.find("gave up after 3 attempts"),
              std::string::npos)
        << results[1].run.note;

    // mispsim's failed-point line names every sweep coordinate, so the
    // point can be rerun alone.
    SpecFile spec;
    Scenario sc;
    std::string err;
    ASSERT_TRUE(SpecFile::parse(kSupervisorScn, "<test>", &spec, &err));
    ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    const harness::MetricFrame frame = buildMetricFrame(sc, results);
    EXPECT_EQ(describePoint(frame, 1),
              "machine=misp workload=dense_mvm competitors=0 "
              "workload.workers=2");
}

TEST(Supervisor, CorruptPipePayloadFailsClosed)
{
    RunnerOptions opts = chaosOptions("corrupt_pipe@0");
    std::vector<PointResult> results = runSupervised(opts);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].run.status, harness::RunStatus::WorkerCrashed);
    EXPECT_NE(results[0].run.note.find("undecodable"), std::string::npos)
        << results[0].run.note;
    EXPECT_TRUE(results[1].run.ok());
    EXPECT_TRUE(results[2].run.ok());
}

TEST(Supervisor, CorruptSnapshotSurfacesAsSnapshotError)
{
    RunnerOptions opts = chaosOptions("corrupt_snapshot@2");
    std::vector<PointResult> results = runSupervised(opts);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].run.ok());
    EXPECT_TRUE(results[1].run.ok());
    EXPECT_EQ(results[2].run.status, harness::RunStatus::SnapshotError);
}

TEST(Supervisor, ForkFailureIsRetryableWithoutAChild)
{
    RunnerOptions opts = chaosOptions("fork_fail@0x1", /*retries=*/1);
    std::vector<PointResult> results = runSupervised(opts);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].run.ok());
    EXPECT_EQ(results[0].run.attempts, 2u);
}

TEST(Supervisor, SpecFaultsAndRunKnobsDriveTheBackend)
{
    // The [faults] and [run] sections are the spec-side spelling of
    // --inject/--retries/--backoff: with no CLI overrides (the -1
    // sentinels), the scenario supervises itself.
    const char *scn = R"(
[scenario]
name = spec_faults

[machine misp]
ams = 3
phys_frames = 65536

[workload]
name = dense_mvm

[sweep]
workload.workers = 1, 2

[run]
retries = 1
retry_backoff_ms = 1

[faults]
inject = crash@0x1
)";
    SpecFile spec;
    Scenario sc;
    std::vector<ScenarioPoint> pts;
    std::string err;
    ASSERT_TRUE(SpecFile::parse(scn, "<test>", &spec, &err)) << err;
    ASSERT_TRUE(Scenario::fromSpec(spec, &sc, &err)) << err;
    ASSERT_TRUE(sc.expandPoints(false, &pts, &err)) << err;

    RunnerOptions opts;
    opts.hostLines = false;
    opts.isolate = true;
    std::vector<PointResult> results =
        ScenarioRunner(opts).runAll(sc, pts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].run.ok());
    EXPECT_EQ(results[0].run.attempts, 2u);
    EXPECT_TRUE(results[1].run.ok());
    EXPECT_EQ(results[1].run.attempts, 1u);
}

// ---------------------------------------------------------------------
// Degradation determinism: artifacts reproducible, survivors
// byte-identical to a clean serial run
// ---------------------------------------------------------------------

namespace {

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

} // namespace

TEST(Supervisor, ChaosSweepArtifactsAreDeterministic)
{
    Scenario sc;
    RunnerOptions opts = chaosOptions("seed=7;crash@1;hang@p0.0");
    opts.deadlineMs = 10000;

    std::ostringstream json1, json2, metrics1, metrics2;
    std::vector<PointResult> run1 = runSupervised(opts, &sc);
    writeJson(json1, sc, false, buildMetricFrame(sc, run1),
              test::statsOf(run1));
    writeMetricsJson(metrics1, sc, false, buildMetricFrame(sc, run1));

    std::vector<PointResult> run2 = runSupervised(opts);
    writeJson(json2, sc, false, buildMetricFrame(sc, run2),
              test::statsOf(run2));
    writeMetricsJson(metrics2, sc, false, buildMetricFrame(sc, run2));

    EXPECT_EQ(json1.str(), json2.str());
    EXPECT_EQ(metrics1.str(), metrics2.str());
}

TEST(Supervisor, SurvivingPointsByteIdenticalToCleanSerialRun)
{
    Scenario sc;
    RunnerOptions serial;
    serial.hostLines = false;
    std::ostringstream cleanOs;
    writePoints(cleanOs,
                buildMetricFrame(sc, runSupervised(serial, &sc)));
    std::vector<std::string> clean = splitLines(cleanOs.str());

    RunnerOptions chaos = chaosOptions("crash@1");
    std::ostringstream chaosOs;
    writePoints(chaosOs, buildMetricFrame(sc, runSupervised(chaos)));
    std::vector<std::string> degraded = splitLines(chaosOs.str());

    ASSERT_EQ(clean.size(), 3u);
    ASSERT_EQ(degraded.size(), 3u);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < degraded.size(); ++i) {
        if (degraded[i].find(" status=") != std::string::npos) {
            ++failed;
            EXPECT_NE(degraded[i].find("status=worker_crashed"),
                      std::string::npos)
                << degraded[i];
            continue;
        }
        // A surviving line is byte-identical to the clean run's.
        EXPECT_EQ(degraded[i], clean[i]);
    }
    EXPECT_EQ(failed, 1u);
}
