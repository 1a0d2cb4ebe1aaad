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
 * byte-identical to a serial run. A record lives only while its point
 * is in flight: it lands in the point's row of the sweep's MetricFrame
 * (Sweep), the only per-point store.
 */

#ifndef MISP_DRIVER_RUNNER_HH
#define MISP_DRIVER_RUNNER_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/scenario.hh"
#include "harness/metric_frame.hh"
#include "harness/run_record.hh"
#include "obs/host_profile.hh"
#include "obs/host_run_log.hh"

namespace misp::driver {

/**
 * One sweep's results. The frame is the only per-point store: each
 * finished point writes its status and measured doubles into its row,
 * and nothing else is kept per point unless a flag asks for it, in a
 * side table indexed by row.
 */
struct Sweep {
    harness::MetricFrame frame;
    /** `--full-stats`: each row's stats dump (RunRecord::statsJson). */
    std::vector<std::string> stats;
    /** `--trace`: each row's trace buffer. */
    std::vector<obs::TraceBuffer> traces;
    /** `--shard`: each row's snap::encodeRunRecord bytes, the records
     *  a shard image carries. */
    std::vector<std::string> records;
    /** The diagnostic (RunRecord::note) of each row whose run left one:
     *  failed points. */
    std::map<std::size_t, std::string> notes;

    /** Row @p r's run finished as @p run: its row, and each side table
     *  that exists (sized to the frame) or that @p run has a value for.
     *  The one sink of serial, --jobs, --isolate, --shard and
     *  --merge-frames sweeps. */
    void store(std::size_t r, harness::RunRecord &&run);
};

/** One grid point's coordinates plus everything its run measured: the
 *  result of the point-list adapters (runPoint, runAll), which keep a
 *  whole RunRecord per point. Kept for bench/ledger and the tests until
 *  the benchmark moves onto ScenarioRunner::run (ROADMAP, item 5). */
struct PointResult {
    /** Machine, workload, competitors and swept coordinates, read
     *  through the grid's shared tables. */
    PointCoords coords;

    /** The measured record (status, ticks, validation, Table-1 events,
     *  derived metrics) — see harness/run_record.hh. */
    harness::RunRecord run;
};

/** @p pt's coordinates with a default (not yet measured) record. */
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
    /** Reuse finished points (in-process runAll only): a point whose
     *  run inputs equal a finished point's, and whose machine config
     *  matches it on every field that point's run read, takes its
     *  record instead of simulating (see sim/config_reads.hh). Off
     *  only to prove the reuse exact (tests); no flag sets it. */
    bool reuseRuns = true;
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

/** Where a sweep's points come from and where their records go; see
 *  runner.cc. */
class SweepSink;

class ScenarioRunner
{
  public:
    /** Kept as a member alias so callers read
     *  `ScenarioRunner::Options`. */
    using Options = RunnerOptions;

    explicit ScenarioRunner(const Options &opts = Options()) : opts_(opts)
    {}

    /**
     * Run the groups @p combos (ascending; every combination for a
     * whole sweep, a shard's own for --shard) of @p grid, which
     * Scenario::expandGrid returned for @p sc — serially in order, on
     * Options::jobs worker threads, or on forked worker processes
     * (Options::isolate). The frame exists before the first point
     * runs; a worker resolves the point it claims (Scenario::resolve),
     * and the point's RunRecord lives only while it is in flight.
     * Side tables exist only when asked for: stats under
     * Options::fullStats, traces under Options::traceEnabled, encoded
     * records when @p keepRecords. In process, the points share the
     * runner's harness::WorkloadStore: each workload is built once per
     * sweep and freed after its last point (a forked worker builds its
     * own), and a point that matches a finished point on everything
     * that point's run read copies its row (Options::reuseRuns). One
     * progress line per completed point on @p progress when non-null
     * (completion order under a worker pool).
     */
    Sweep run(const Scenario &sc, std::shared_ptr<const GridTable> grid,
              std::vector<std::uint32_t> combos,
              std::ostream *progress = nullptr, bool keepRecords = false);

    /** The host profile of the last sweep, folded in as its points
     *  finished (`--profile`). */
    const obs::HostProfile &profile() const { return profile_; }

    /** The store the in-process points of a sweep share. */
    const harness::WorkloadStore &workloads() const { return store_; }

    // Point-list adapters over the same sweep loop, kept for
    // bench/ledger and the tests until the benchmark moves onto run()
    // (ROADMAP, item 5). They keep a whole RunRecord per point.

    /** Run one grid point (@p pointIndex keys its snapshot image). */
    PointResult runPoint(const Scenario &sc, const ScenarioPoint &pt,
                         std::size_t pointIndex = 0);

    /** Run @p pts as given through run()'s loop, and return their
     *  records in submission order; a reused point copies its source's
     *  record (RunRecord::reusedFrom names the source). */
    std::vector<PointResult> runAll(const Scenario &sc,
                                    const std::vector<ScenarioPoint> &pts,
                                    std::ostream *progress = nullptr);

  private:
    /** The one sweep loop behind run() and runAll(). */
    void sweep(const Scenario &sc, SweepSink &sink, std::ostream *progress);
    /** Its --isolate backend. */
    void sweepIsolated(const Scenario &sc, SweepSink &sink,
                       std::ostream *progress);

    Options opts_;
    harness::WorkloadStore store_;
    obs::HostProfile profile_;
};

/**
 * The MetricFrame of @p results (whole coordinate groups of one grid,
 * in grid order); the `speedup` column uses the scenario's [report]
 * baseline_machine. The point-list adapters' frame, kept for
 * bench/ledger and the tests (ROADMAP, item 5); run() fills its frame
 * as points finish.
 */
harness::MetricFrame
buildMetricFrame(const Scenario &sc,
                 const std::vector<PointResult> &results);

/** Machine-readable results: scenario header + one object per point.
 *  Fully deterministic (host timing stays on the stderr HOST lines),
 *  so reruns and `--jobs N` runs are byte-identical. @p stats is the
 *  sweep's `--full-stats` side table (one dump per frame row), or
 *  empty. */
void writeJson(std::ostream &os, const Scenario &sc, bool quickMode,
               const harness::MetricFrame &frame,
               const std::vector<std::string> &stats);

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
