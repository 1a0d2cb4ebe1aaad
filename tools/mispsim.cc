/**
 * @file
 * `mispsim` — the scenario driver CLI.
 *
 * Runs a declarative `.scn` scenario (machine topology x workload x
 * sweep axes) through the shared ScenarioRunner and emits human tables
 * — the spec's `[table]` sections, or one row per grid point — plus
 * optional machine-readable JSON. Every paper figure and table, and
 * any new experiment, is a spec file, not a C++ program:
 *
 *   $ ./build/mispsim scenarios/fig4.scn -o fig4.json
 *   $ ./build/mispsim scenarios/fig7.scn --quick --md
 *   $ ./build/mispsim scenarios/smoke.scn --dry-run
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "cpu/engine.hh"
#include "driver/cli_help.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/shard.hh"
#include "obs/host_profile.hh"
#include "obs/host_run_log.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

using namespace misp;
using namespace misp::driver;

namespace {

int
usage(const char *argv0, int code)
{
    // Rendered from the flag/exit-code registries in driver/cli_help.cc
    // so the help text can never drift from the audited CLI surface.
    std::fputs(mispsimUsage(argv0).c_str(), code ? stderr : stdout);
    return code;
}

void
listWorkloads()
{
    std::printf("%-18s %s\n", "name", "suite");
    for (const wl::WorkloadInfo &info : wl::allWorkloads())
        std::printf("%-18s %s\n", info.name.c_str(), info.suite.c_str());
    for (const wl::WorkloadInfo &info : wl::utilWorkloads())
        std::printf("%-18s %s\n", info.name.c_str(), info.suite.c_str());
}

/** What the post-sweep tail writes, beyond the frame itself. */
struct SweepOutputs {
    bool quick = false;
    bool pointsOnly = false;
    bool markdown = false;
    std::string jsonPath;    ///< -o
    std::string metricsPath; ///< --metrics, or the --merge-frames output
    /** Non-null for a --shard run: write a shard image, and defer the
     *  [table]s and asserts (cross-axis selectors would dangle). */
    const ShardHeader *shard = nullptr;
};

/** Write one output file, or diagnose why it cannot be opened. */
bool
writeArtifact(const std::string &path,
              const std::function<void(std::ostream &)> &write)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "mispsim: cannot write '%s'\n", path.c_str());
        return false;
    }
    write(os);
    std::fprintf(stderr, "mispsim: wrote %s\n", path.c_str());
    return true;
}

/**
 * The one post-sweep path of serial, --jobs, --isolate, --shard and
 * --merge-frames runs: render stdout from the sweep's frame, write the
 * -o / --metrics artifacts, report failed points from the frame's
 * status/valid/attempts columns, evaluate the [report] asserts, and
 * pick the exit code — 0, 1, or 4 for a sweep that passed with failed
 * points under on_failed_points = skip.
 */
int
finishSweep(const Scenario &sc, const Sweep &sweep, const SweepOutputs &out)
{
    const harness::MetricFrame &frame = sweep.frame;
    int rc = 0;
    std::string err;
    if (out.pointsOnly) {
        writePoints(std::cout, frame);
    } else if (!sc.tables.empty() && !out.shard) {
        if (!writeTables(std::cout, sc, frame, out.markdown, &err)) {
            std::fprintf(stderr, "mispsim: %s\n", err.c_str());
            rc = 1;
        }
    } else {
        writeTable(std::cout, sc, frame, out.markdown);
    }

    if (!out.jsonPath.empty() &&
        !writeArtifact(out.jsonPath, [&](std::ostream &os) {
            writeJson(os, sc, out.quick, frame, sweep.stats);
        }))
        return 1;
    if (!out.metricsPath.empty() &&
        !writeArtifact(out.metricsPath, [&](std::ostream &os) {
            if (out.shard) {
                const std::string image =
                    encodeShardImage(*out.shard, sweep.records);
                os.write(image.data(),
                         static_cast<std::streamsize>(image.size()));
            } else {
                writeMetricsJson(os, sc, out.quick, frame);
            }
        }))
        return 1;

    std::size_t failedPoints = 0;
    const bool degradeGracefully =
        sc.report.onFailedPoints == FailedPointPolicy::Skip;
    for (std::size_t r = 0; r < frame.numRows(); ++r) {
        const harness::RunStatus status = frame.status(r);
        if (status == harness::RunStatus::Completed &&
            frame.at(r, "valid") != 0.0)
            continue;
        std::string what;
        switch (status) {
          case harness::RunStatus::MaxTicksReached:
            what = "never finished (hit max_ticks)";
            break;
          case harness::RunStatus::SnapshotError:
            what = "snapshot error";
            break;
          case harness::RunStatus::WorkerCrashed:
            what = "worker crashed";
            break;
          case harness::RunStatus::WorkerTimeout:
            what = "worker timed out";
            break;
          case harness::RunStatus::Completed:
            what = "failed result validation";
            break;
        }
        const bool infra = harness::runStatusIsInfraFailure(status);
        if (infra) {
            const auto note = sweep.notes.find(r);
            what += ": " + (note == sweep.notes.end() ? std::string()
                                                      : note->second);
        }
        const double attempts = frame.at(r, "attempts");
        if (attempts > 1)
            what += " [attempts=" +
                    std::to_string(static_cast<long long>(attempts)) +
                    "]";
        std::fprintf(stderr, "mispsim: point %s %s\n",
                     describePoint(frame, r).c_str(), what.c_str());
        // Infrastructure failures degrade instead of failing when the
        // policy says skip; simulation outcomes (max_ticks, invalid
        // results) are real findings and always fail the run.
        if (infra && degradeGracefully)
            ++failedPoints;
        else
            rc = 1;
    }

    // [report] asserts guard paper claims from the spec itself; any
    // failing (or malformed) assert makes the run exit non-zero. A
    // shard sees only its slice of the grid, so its asserts and
    // [table]s wait for the --merge-frames pass over the whole frame.
    if (out.shard) {
        if (!sc.report.asserts.empty())
            std::fprintf(stderr,
                         "mispsim: %zu [report] assert(s) deferred to "
                         "--merge-frames (--shard %zu/%zu)\n",
                         sc.report.asserts.size(), out.shard->shard.index,
                         out.shard->shard.count);
        if (!sc.tables.empty() && !out.pointsOnly)
            std::fprintf(stderr,
                         "mispsim: %zu [table](s) deferred to "
                         "--merge-frames\n",
                         sc.tables.size());
    } else {
        std::vector<AssertFailure> failures;
        std::size_t skippedGroups = 0;
        if (!evaluateAsserts(sc, frame, &failures, &err,
                             &skippedGroups)) {
            std::fprintf(stderr, "mispsim: %s\n", err.c_str());
            return 1;
        }
        for (const AssertFailure &f : failures) {
            std::fprintf(stderr,
                         "mispsim: %s:%d: assert FAILED: %s (%s)\n",
                         sc.specPath.c_str(), f.line, f.text.c_str(),
                         f.detail.c_str());
            rc = 1;
        }
        if (skippedGroups > 0)
            std::fprintf(stderr,
                         "mispsim: %zu assert evaluation(s) skipped "
                         "over failed points\n",
                         skippedGroups);
        if (!sc.report.asserts.empty() && failures.empty())
            std::fprintf(stderr, "mispsim: %zu assert(s) passed\n",
                         sc.report.asserts.size());
    }
    // Distinct code for "completed with failed points": everything
    // that ran passed, but the sweep is degraded (on_failed_points =
    // skip swallowed infrastructure failures).
    if (rc == 0 && failedPoints > 0) {
        std::fprintf(stderr,
                     "mispsim: completed with %zu failed point(s) "
                     "(on_failed_points=skip)\n",
                     failedPoints);
        rc = 4;
    }
    return rc;
}

/**
 * `--merge-frames OUT IN...`: reassemble the per-shard images into
 * the grid's results and finish them exactly like a serial run — OUT
 * gets the serial `--metrics` format, and the asserts and [table]s
 * the shards deferred run here.
 */
int
mergeFramesMain(const Scenario &sc,
                const std::vector<std::string> &inputs,
                SweepOutputs out)
{
    std::string err;
    if (inputs.empty()) {
        std::fprintf(stderr,
                     "mispsim: --merge-frames needs at least one shard "
                     "image\n");
        return 2;
    }
    std::vector<ShardDump> dumps;
    for (const std::string &in : inputs) {
        ShardDump dump;
        if (!readShardImage(in, &dump, &err)) {
            std::fprintf(stderr, "mispsim: %s\n", err.c_str());
            return 1;
        }
        dumps.push_back(std::move(dump));
    }
    // The grid is re-expanded under the mode the shards ran in;
    // mergeShardDumps fails closed if the dumps disagree on it.
    out.quick = dumps[0].header.quick;
    std::shared_ptr<const GridTable> grid;
    Sweep merged;
    if (!sc.expandGrid(out.quick, &grid, &err) ||
        !mergeShardDumps(sc, out.quick, grid, std::move(dumps), &merged,
                         &err)) {
        std::fprintf(stderr, "mispsim: %s\n", err.c_str());
        return 1;
    }
    return finishSweep(sc, merged, out);
}

} // namespace

int
main(int argc, char **argv)
{
#ifdef __GLIBC__
    // A sweep builds and tears down one machine per grid point, and each
    // point allocates the same large buffers again (workload data,
    // decode-cache bitmaps). glibc would serve each from a fresh mmap,
    // or trim it off the heap top when freed, and the next point would
    // page-fault it in again; fixed thresholds keep such buffers on the
    // heap for reuse across points.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
    std::string scnArg;
    std::string jsonPath;
    std::string metricsPath;
    bool quick = false;
    bool markdown = false;
    bool pointsOnly = false;
    bool dryRun = false;
    bool fullStats = false;
    bool verbose = false;
    bool forceEngine = false;
    misp::cpu::Engine engine = misp::cpu::Engine::Superblock;
    bool isolate = false;
    unsigned jobs = 1;
    std::string saveSnapshotDir;
    std::string fromSnapshotDir;
    std::string injectSpec;
    std::int64_t deadlineMs = -1;
    int retries = -1;
    int backoffMs = -1;
    std::string onFailed;
    std::string tracePath;
    std::uint64_t traceSkip = 0;
    std::string runLogPath;
    std::string profilePath;
    bool progressFlag = false;
    std::string shardArg;
    std::string mergeOut;
    std::vector<std::string> mergeInputs;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "-h") == 0 || std::strcmp(arg, "--help") == 0)
            return usage(argv[0], 0);
        if (std::strcmp(arg, "--list-workloads") == 0) {
            listWorkloads();
            return 0;
        }
        if (std::strcmp(arg, "-o") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr, "mispsim: -o needs a file argument\n");
                return 2;
            }
            jsonPath = argv[i];
        } else if (std::strcmp(arg, "--metrics") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --metrics needs a file argument\n");
                return 2;
            }
            metricsPath = argv[i];
        } else if (std::strcmp(arg, "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(arg, "--jobs") == 0) {
            if (++i >= argc || !parseUnsigned(argv[i], &jobs) ||
                jobs == 0) {
                std::fprintf(stderr,
                             "mispsim: --jobs needs a positive integer\n");
                return 2;
            }
        } else if (std::strcmp(arg, "--isolate") == 0) {
            isolate = true;
        } else if (std::strcmp(arg, "--deadline") == 0) {
            unsigned ms = 0;
            if (++i >= argc || !parseUnsigned(argv[i], &ms)) {
                std::fprintf(stderr,
                             "mispsim: --deadline needs a millisecond "
                             "count\n");
                return 2;
            }
            deadlineMs = static_cast<std::int64_t>(ms);
        } else if (std::strcmp(arg, "--retries") == 0) {
            unsigned n = 0;
            if (++i >= argc || !parseUnsigned(argv[i], &n)) {
                std::fprintf(stderr,
                             "mispsim: --retries needs an integer\n");
                return 2;
            }
            retries = static_cast<int>(n);
        } else if (std::strcmp(arg, "--backoff") == 0) {
            unsigned ms = 0;
            if (++i >= argc || !parseUnsigned(argv[i], &ms)) {
                std::fprintf(stderr,
                             "mispsim: --backoff needs a millisecond "
                             "count\n");
                return 2;
            }
            backoffMs = static_cast<int>(ms);
        } else if (std::strcmp(arg, "--inject") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --inject needs a fault spec\n");
                return 2;
            }
            injectSpec = argv[i];
        } else if (std::strcmp(arg, "--on-failed") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --on-failed needs fail, skip, or "
                             "require_all\n");
                return 2;
            }
            onFailed = argv[i];
        } else if (std::strcmp(arg, "--save-snapshot") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --save-snapshot needs a directory\n");
                return 2;
            }
            saveSnapshotDir = argv[i];
        } else if (std::strcmp(arg, "--from-snapshot") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --from-snapshot needs a directory\n");
                return 2;
            }
            fromSnapshotDir = argv[i];
        } else if (std::strncmp(arg, "--engine=", 9) == 0) {
            if (!misp::cpu::parseEngineName(arg + 9, &engine)) {
                std::fprintf(stderr,
                             "mispsim: --engine wants ref or superblock, "
                             "got '%s'\n",
                             arg + 9);
                return 2;
            }
            forceEngine = true;
        } else if (std::strcmp(arg, "--trace") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --trace needs a file argument\n");
                return 2;
            }
            tracePath = argv[i];
        } else if (std::strcmp(arg, "--trace-skip") == 0) {
            if (++i >= argc || !parseU64(argv[i], &traceSkip)) {
                std::fprintf(stderr,
                             "mispsim: --trace-skip needs a processed-"
                             "event count\n");
                return 2;
            }
        } else if (std::strcmp(arg, "--run-log") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --run-log needs a file argument\n");
                return 2;
            }
            runLogPath = argv[i];
        } else if (std::strcmp(arg, "--profile") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --profile needs a file argument\n");
                return 2;
            }
            profilePath = argv[i];
        } else if (std::strcmp(arg, "--shard") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --shard needs a k/N spec\n");
                return 2;
            }
            shardArg = argv[i];
        } else if (std::strcmp(arg, "--merge-frames") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "mispsim: --merge-frames needs an output "
                             "file argument\n");
                return 2;
            }
            mergeOut = argv[i];
        } else if (std::strcmp(arg, "--progress") == 0) {
            progressFlag = true;
        } else if (std::strcmp(arg, "--md") == 0) {
            markdown = true;
        } else if (std::strcmp(arg, "--points") == 0) {
            pointsOnly = true;
        } else if (std::strcmp(arg, "--dry-run") == 0) {
            dryRun = true;
        } else if (std::strcmp(arg, "--full-stats") == 0) {
            fullStats = true;
        } else if (std::strcmp(arg, "--verbose") == 0) {
            verbose = true;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "mispsim: unknown option '%s'\n", arg);
            return usage(argv[0], 2);
        } else if (scnArg.empty()) {
            scnArg = arg;
        } else if (!mergeOut.empty()) {
            // Merge mode: the scenario comes first, then the per-shard
            // images to reassemble.
            mergeInputs.push_back(arg);
        } else {
            std::fprintf(stderr, "mispsim: more than one scenario file\n");
            return usage(argv[0], 2);
        }
    }
    if (scnArg.empty())
        return usage(argv[0], 2);
    if (!mergeOut.empty() && !shardArg.empty()) {
        std::fprintf(stderr,
                     "mispsim: --shard and --merge-frames are mutually "
                     "exclusive\n");
        return 2;
    }
    ShardSpec shard;
    const bool sharded = !shardArg.empty();
    std::string shardErr;
    if (sharded && !parseShardSpec(shardArg, &shard, &shardErr)) {
        std::fprintf(stderr, "mispsim: %s\n", shardErr.c_str());
        return 2;
    }

    setQuietLogging(!verbose);

    std::string path = findScenarioFile(scnArg, argv[0]);
    if (path.empty()) {
        std::fprintf(stderr, "mispsim: scenario '%s' not found\n",
                     scnArg.c_str());
        return 1;
    }

    SpecFile spec;
    std::string err;
    if (!SpecFile::parseFile(path, &spec, &err)) {
        std::fprintf(stderr, "mispsim: %s\n", err.c_str());
        return 1;
    }
    Scenario sc;
    if (!Scenario::fromSpec(spec, &sc, &err)) {
        std::fprintf(stderr, "mispsim: %s\n", err.c_str());
        return 1;
    }

    // The supervision flags act on forked workers; without --isolate
    // there is no worker to supervise, so reject the combination
    // instead of silently ignoring it.
    if (!isolate &&
        (!injectSpec.empty() || deadlineMs >= 0 || retries >= 0 ||
         backoffMs >= 0)) {
        std::fprintf(stderr,
                     "mispsim: --inject/--deadline/--retries/--backoff "
                     "require --isolate\n");
        return 2;
    }
    FaultPlan injected;
    if (!injectSpec.empty() &&
        !FaultPlan::parse(injectSpec, &injected, &err)) {
        std::fprintf(stderr, "mispsim: --inject: %s\n", err.c_str());
        return 2;
    }
    if (!onFailed.empty()) {
        if (onFailed == "fail")
            sc.report.onFailedPoints = FailedPointPolicy::Fail;
        else if (onFailed == "skip")
            sc.report.onFailedPoints = FailedPointPolicy::Skip;
        else if (onFailed == "require_all")
            sc.report.onFailedPoints = FailedPointPolicy::RequireAll;
        else {
            std::fprintf(stderr,
                         "mispsim: --on-failed: expected fail, skip, or "
                         "require_all, got '%s'\n",
                         onFailed.c_str());
            return 2;
        }
    }

    SweepOutputs out;
    out.quick = quick;
    out.pointsOnly = pointsOnly;
    out.markdown = markdown;
    out.jsonPath = jsonPath;
    out.metricsPath = metricsPath;
    if (!mergeOut.empty()) {
        out.metricsPath = mergeOut;
        return mergeFramesMain(sc, mergeInputs, out);
    }

    std::shared_ptr<const GridTable> grid;
    if (!sc.expandGrid(quick, &grid, &err)) {
        std::fprintf(stderr, "mispsim: %s\n", err.c_str());
        return 1;
    }

    // --shard k/N: keep only this shard's coordinate combinations.
    // Combinations (not raw points) are dealt round-robin so each
    // coordinate group stays whole and its derived columns (speedup)
    // match the serial run's; the owned points keep their global grid
    // indices so snapshots and fault plans compose unchanged.
    ShardHeader shardHeader;
    if (sharded) {
        shardHeader = makeShardHeader(sc, quick, shard, *grid);
        out.shard = &shardHeader;
    }
    std::vector<std::uint32_t> combos = shardCombos(shard, grid->combos());

    if (dryRun) {
        std::printf("scenario %s: %zu point(s)\n", sc.name.c_str(),
                    combos.size() * grid->machines.size());
        for (std::uint32_t combo : combos) {
            for (const std::string &machine : grid->machines) {
                std::printf("  %-10s %-18s competitors=%u", machine.c_str(),
                            grid->workloadAt(combo).c_str(),
                            grid->competitorsAt(combo));
                const std::string coords = grid->label(combo);
                if (!coords.empty())
                    std::printf("  [%s]", coords.c_str());
                std::printf("\n");
            }
        }
        return 0;
    }

    if (!saveSnapshotDir.empty() && !fromSnapshotDir.empty()) {
        std::fprintf(stderr, "mispsim: --save-snapshot and "
                             "--from-snapshot are mutually exclusive\n");
        return 2;
    }
    if (!saveSnapshotDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(saveSnapshotDir, ec);
        if (ec) {
            std::fprintf(stderr, "mispsim: cannot create '%s': %s\n",
                         saveSnapshotDir.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }

    if (tracePath.empty() && traceSkip != 0) {
        std::fprintf(stderr, "mispsim: --trace-skip requires --trace\n");
        return 2;
    }

    std::ofstream runLogFile;
    if (!runLogPath.empty()) {
        runLogFile.open(runLogPath);
        if (!runLogFile) {
            std::fprintf(stderr, "mispsim: cannot write '%s'\n",
                         runLogPath.c_str());
            return 1;
        }
    }
    obs::RunLog runLog(runLogFile.is_open() ? &runLogFile : nullptr);

    ScenarioRunner::Options opts;
    opts.forceEngine = forceEngine;
    opts.engine = engine;
    opts.fullStats = fullStats;
    opts.jobs = jobs;
    opts.isolate = isolate;
    opts.deadlineMs = deadlineMs;
    opts.retries = retries;
    opts.backoffMs = backoffMs;
    opts.faults = injected;
    opts.snapshotSaveDir = saveSnapshotDir;
    opts.snapshotLoadDir = fromSnapshotDir;
    opts.traceEnabled = !tracePath.empty();
    opts.traceSkip = traceSkip;
    if (runLogFile.is_open())
        opts.runLog = &runLog;
    ScenarioRunner runner(opts);
    const bool showProgress = progressFlag || !pointsOnly;
    const Sweep sweep = runner.run(sc, grid, std::move(combos),
                                   showProgress ? &std::cerr : nullptr,
                                   sharded);

    if (!tracePath.empty() &&
        !writeArtifact(tracePath, [&](std::ostream &os) {
            // Each point's label (coordinates only, identical across
            // engines and execution backends) is formed as it is
            // written.
            const harness::MetricFrame &frame = sweep.frame;
            obs::writeChromeTrace(os, frame.numRows(), [&](std::size_t r) {
                std::string label = frame.machine(r) + ":" + frame.workload(r);
                const std::string coords =
                    frame.grid().label(frame.combo(frame.groupOf(r)));
                if (!coords.empty())
                    label += " " + coords;
                return obs::TracePoint{std::move(label), &sweep.traces[r]};
            });
        }))
        return 1;

    if (!profilePath.empty() &&
        !writeArtifact(profilePath, [&](std::ostream &os) {
            runner.profile().writeJson(os);
        }))
        return 1;

    return finishSweep(sc, sweep, out);
}
