/**
 * @file
 * ScenarioRunner: executes an expanded scenario grid on the unified
 * run layer (harness::runOne), plus the result emitters every consumer
 * shares — JSON (machine-readable, CI artifacts), text and markdown
 * tables through one grid emitter (humans, $GITHUB_STEP_SUMMARY), and
 * canonical point lines (the engine/backend equivalence diff format).
 *
 * One grid point is exactly one harness::RunRequest: build the
 * workload, instantiate the machine + runtime backend, load the target
 * (pinned per the machine's placement policy), load background
 * workloads and competitor processes, run to target completion under
 * the wall clock, harvest Table-1 events from processor 0. The
 * resulting harness::RunRecord is self-contained and deterministic in
 * its simulated fields, so grid points can fan out across a worker
 * pool (RunnerOptions::jobs) with submission-order output that is
 * byte-identical to a serial run.
 */

#ifndef MISP_DRIVER_RUNNER_HH
#define MISP_DRIVER_RUNNER_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "driver/scenario.hh"
#include "harness/metric_frame.hh"
#include "harness/run_record.hh"
#include "obs/host_run_log.hh"

namespace misp::driver {

/** One grid point's coordinates plus everything its run measured. */
struct PointResult {
    /** Machine, workload, competitors and swept coordinates, read
     *  through the grid's shared tables. */
    PointCoords coords;

    /** The measured record (status, ticks, validation, Table-1 events,
     *  derived metrics) — see harness/run_record.hh. */
    harness::RunRecord run;
};

/** @p pt's coordinates with a default (not yet measured) record: a
 *  run's measurements are filled in where they arrive — in process,
 *  over an --isolate pipe, or from a shard image. */
PointResult unmeasuredResult(const ScenarioPoint &pt);

struct RunnerOptions {
    /** Force one host execution engine on every machine, overriding
     *  the scenario's `engine` knob (--engine=ref|superblock). */
    bool forceEngine = false;
    cpu::Engine engine = cpu::Engine::Superblock;
    /** Capture a full stats::StatGroup JSON dump per point. */
    bool fullStats = false;
    /** Emit the uniform HOST throughput line per run on stderr. */
    bool hostLines = true;
    /** Worker threads for the grid (--jobs N). Grid points are
     *  independent deterministic runs; results are stored in
     *  submission order, so every emitter's output is byte-identical
     *  to a serial run. 0 and 1 both mean serial. */
    unsigned jobs = 1;

    /** Crash-isolated workers (--isolate): fork one child process per
     *  grid point (up to `jobs` concurrently) and ship each point's
     *  RunRecord back over a pipe. Submission-order results and
     *  byte-identical artifacts, like the thread pool — but a point
     *  that crashes its worker is recorded as
     *  RunStatus::WorkerCrashed instead of taking the sweep down. */
    bool isolate = false;

    // Supervision knobs for the --isolate backend. The -1 sentinels
    // mean "use the scenario's [run] defaults"; an explicit CLI value
    // overrides the spec.

    /** Wall-clock deadline per worker attempt in ms (--deadline). A
     *  worker that exceeds it is SIGKILLed and its point recorded as
     *  RunStatus::WorkerTimeout. 0 = no deadline. */
    std::int64_t deadlineMs = -1;
    /** Extra launches after a transient failure — worker crash,
     *  timeout, or snapshot error — before the point is given up
     *  (--retries). 0 = fail on first attempt. */
    int retries = -1;
    /** Base relaunch delay in ms (--backoff); attempt k is delayed
     *  backoff * 2^(k-1) ms (deterministic exponential backoff). */
    int backoffMs = -1;

    /** Deterministic fault-injection plan (--inject); merged over the
     *  scenario's [faults] schedule (the CLI seed wins). Only honored
     *  by the --isolate backend — faults are worker misbehaviors. */
    FaultPlan faults;

    /** Directory to write one warmup image per grid point into
     *  (--save-snapshot): each point warms up for the scenario's
     *  [snapshot] warmup_ticks, archives point_<index>.misnap, and
     *  runs on to completion (results unchanged). */
    std::string snapshotSaveDir;
    /** Directory to restore per-point warmup images from
     *  (--from-snapshot); each image's config hash is validated
     *  against the point's request (fail-closed per point). Restored
     *  results are byte-identical to cold runs except the fullStats
     *  decode-cache hit/miss counters, which restart cold (the decode
     *  cache is derived state and stays out of images). */
    std::string snapshotLoadDir;

    // Observability (src/obs/) ----------------------------------------

    /** Record each point's deterministic event trace (--trace FILE).
     *  Categories and the buffer bound come from the scenario's
     *  [trace] section; the trace rides the RunRecord, so --jobs and
     *  --isolate fan-out preserve byte identity for free. */
    bool traceEnabled = false;
    /** Processed-event cursor (--trace-skip N): events before the Nth
     *  processed queue event are not recorded. Set it to a restored
     *  trace's reported `base` to reproduce that trace from a cold
     *  run. */
    std::uint64_t traceSkip = 0;

    /** Host-plane supervisor run log (--run-log FILE); not owned, may
     *  be null. Receives dispatch/retry/timeout/completion telemetry —
     *  wall-clock facts only, never simulated data. */
    obs::RunLog *runLog = nullptr;

    /** Global grid indices of the submitted points (--shard k/N):
     *  entry i is the submission index pts[i] holds in the *full*
     *  grid. Snapshot image files (point_<k>.misnap) and fault-plan
     *  targets are keyed by this index, so a shard composes with
     *  --save-snapshot/--from-snapshot and --inject exactly as the
     *  same points would in an unsharded run. Empty = identity. */
    std::vector<std::size_t> pointIndices;
};

/** The image file `--save-snapshot`/`--from-snapshot` use for grid
 *  point @p index under @p dir. */
std::string snapshotPointPath(const std::string &dir, std::size_t index);

/** The RunRequest a grid point denotes — the single translation from
 *  scenario model to the unified run layer (shared with tests).
 *  @p pointIndex keys the per-point snapshot image file when the
 *  options ask for snapshot traffic. */
harness::RunRequest makeRunRequest(const Scenario &sc,
                                   const ScenarioPoint &pt,
                                   const RunnerOptions &opts,
                                   std::size_t pointIndex = 0);

class ScenarioRunner
{
  public:
    /** Kept as a member alias so callers read
     *  `ScenarioRunner::Options`. */
    using Options = RunnerOptions;

    explicit ScenarioRunner(const Options &opts = Options()) : opts_(opts)
    {}

    /** Run one grid point (@p pointIndex keys its snapshot image). */
    PointResult runPoint(const Scenario &sc, const ScenarioPoint &pt,
                         std::size_t pointIndex = 0);

    /** Run the whole grid — serially in order, on Options::jobs worker
     *  threads, or on forked worker processes (Options::isolate) — and
     *  return results in submission order. In process, the points
     *  share the runner's harness::WorkloadStore: each workload is
     *  built once per sweep and freed after its last point, and none
     *  outlives the sweep (a forked worker builds its own). One
     *  progress line per completed point on @p progress when non-null
     *  (completion order under a worker pool). */
    std::vector<PointResult> runAll(const Scenario &sc,
                                    const std::vector<ScenarioPoint> &pts,
                                    std::ostream *progress = nullptr);

    /** The store runAll's in-process points share. */
    const harness::WorkloadStore &workloads() const { return store_; }

  private:
    /** runPoint with its workloads from @p store (null: its own). */
    PointResult measure(const Scenario &sc, const ScenarioPoint &pt,
                        std::size_t pointIndex,
                        harness::WorkloadStore *store);

    std::vector<PointResult>
    runIsolated(const Scenario &sc, const std::vector<ScenarioPoint> &pts,
                std::ostream *progress);

    /** Full-grid submission index of submitted point @p i (identity
     *  unless Options::pointIndices says otherwise). */
    std::size_t gridIndex(std::size_t i) const
    {
        return opts_.pointIndices.empty() ? i : opts_.pointIndices[i];
    }

    Options opts_;
    harness::WorkloadStore store_;
};

/**
 * Build the sweep's MetricFrame — the single translation from grid
 * results to the queryable metrics store every consumer (asserts,
 * emitters, [table]s) reads. Rows are added in grid order and
 * the `speedup` column uses the scenario's [report] baseline_machine.
 */
harness::MetricFrame
buildMetricFrame(const Scenario &sc,
                 const std::vector<PointResult> &results);

/** Machine-readable results: scenario header + one object per point.
 *  Fully deterministic (host timing stays on the stderr HOST lines),
 *  so reruns and `--jobs N` runs are byte-identical. The full-stats
 *  dumps are read from @p results (the frame's rows, in grid order),
 *  never copied into the frame. */
void writeJson(std::ostream &os, const Scenario &sc, bool quickMode,
               const harness::MetricFrame &frame,
               const std::vector<PointResult> &results);

/** Human results table; GitHub-flavoured markdown when @p markdown.
 *  Adds the [report]-requested speedup columns. */
void writeTable(std::ostream &os, const Scenario &sc,
                const harness::MetricFrame &frame, bool markdown);

/**
 * The one grid emitter behind every stdout table (the per-point table
 * and each [table] section): @p title (skipped when empty), a header
 * row, a rule, then @p rows rows whose cells @p formatRow produces on
 * demand — rows are formatted, never stored. Plain text is
 * column-aligned (a width pass formats every row once before
 * emission); GitHub-flavoured markdown when @p markdown.
 */
void writeGrid(std::ostream &os, const std::string &title,
               const std::vector<std::string> &header, std::size_t rows,
               const std::function<std::vector<std::string>(std::size_t)>
                   &formatRow,
               bool markdown);

/** Canonical `machine=... workload=... competitors=... ticks=...
 *  valid=...` lines — the equivalence-diff format. */
void writePoints(std::ostream &os, const harness::MetricFrame &frame);

/** `machine=M workload=W competitors=N` plus one `key=value` per swept
 *  axis of row @p r: a point named well enough to rerun it alone. */
std::string describePoint(const harness::MetricFrame &frame,
                          std::size_t r);

/** The `mispsim --metrics FILE` artifact: scenario header + the full
 *  frame (every row x every column) as deterministic JSON. */
void writeMetricsJson(std::ostream &os, const Scenario &sc,
                      bool quickMode,
                      const harness::MetricFrame &frame);

/**
 * Locate a scenario file: @p nameOrPath as given, then under
 * `scenarios/` relative to the working directory and its parents, then
 * relative to the executable's directory (@p argv0) and its parents.
 * Returns "" when nothing exists.
 */
std::string findScenarioFile(const std::string &nameOrPath,
                             const char *argv0);

/**
 * The bench entry point for a checked-in spec: locate @p nameOrPath (per
 * findScenarioFile), parse + validate + expand the grid (applying
 * [quick] overrides when @p quick), and run every point. On failure,
 * prints a "@p tool: ..." diagnostic to stderr and returns false.
 */
bool runScenarioByName(const std::string &nameOrPath, const char *argv0,
                       bool quick, const RunnerOptions &opts,
                       const char *tool, Scenario *sc,
                       std::vector<PointResult> *results);

} // namespace misp::driver

#endif // MISP_DRIVER_RUNNER_HH
