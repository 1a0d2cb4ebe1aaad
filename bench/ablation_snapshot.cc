/**
 * @file
 * Snapshot-subsystem ablation: what machine-state images cost and what
 * warmup amortization buys.
 *
 * Three measurements over the CI smoke sweep (scenarios/smoke.scn):
 *
 *  1. Image mechanics, per grid point: serialize time, image size, and
 *     deserialize+rebuild time (API-level, no file I/O in the timing).
 *  2. A cold sweep vs a `--from-snapshot` sweep restored from warmup
 *     images: the end-to-end wall-clock speedup of fork-many.
 *  3. The determinism contract: restored runs must report identical
 *     ticks / events / retired instructions to cold runs (any
 *     divergence fails the bench).
 *
 * Results land in BENCH_snapshot.json so CI keeps a trajectory.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_common.hh"
#include "snapshot/snapshot.hh"

using namespace misp;
using namespace misp::bench;

namespace {

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct ImageCost {
    std::uint64_t bytes = 0;
    double saveMs = 0;
    double restoreMs = 0;
    Tick savedTick = 0;
};

/** Warm one point up, then time the serialize and rebuild paths. */
ImageCost
measureImage(const driver::Scenario &sc, const driver::ScenarioPoint &pt)
{
    ImageCost out;
    driver::RunnerOptions opts;
    opts.hostLines = false;
    harness::RunRequest req = driver::makeRunRequest(sc, pt, opts);

    const wl::WorkloadInfo *info = wl::findWorkload(req.target.name);
    MISP_ASSERT(info != nullptr);
    wl::Workload w = info->build(req.target.params);
    harness::Experiment exp(req.config, req.backend);
    harness::LoadedProcess proc = exp.load(w.app);
    exp.system().start();
    exp.system().run(sc.snapshotWarmupTicks);

    std::string image, err;
    auto t0 = std::chrono::steady_clock::now();
    if (!snap::saveExperiment(exp, proc.process, 0, req.label, &image,
                              &err)) {
        std::fprintf(stderr, "ablation_snapshot: save failed: %s\n",
                     err.c_str());
        return out;
    }
    auto t1 = std::chrono::steady_clock::now();
    snap::RestoredExperiment restored;
    if (!snap::restoreExperiment(image, &restored, &err)) {
        std::fprintf(stderr, "ablation_snapshot: restore failed: %s\n",
                     err.c_str());
        return out;
    }
    auto t2 = std::chrono::steady_clock::now();

    out.bytes = image.size();
    out.saveMs = seconds(t0, t1) * 1e3;
    out.restoreMs = seconds(t1, t2) * 1e3;
    out.savedTick = exp.system().eventQueue().curTick();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    const bool quick = parseBenchFlags(argc, argv);

    printHeader("Snapshot ablation: image cost + warmup-amortized sweep "
                "speedup");

    std::string err;
    driver::Scenario sc;
    std::vector<driver::ScenarioPoint> pts;
    {
        std::string path =
            driver::findScenarioFile("smoke.scn", argv[0]);
        driver::SpecFile spec;
        if (path.empty() ||
            !driver::SpecFile::parseFile(path, &spec, &err) ||
            !driver::Scenario::fromSpec(spec, &sc, &err) ||
            !sc.expandPoints(quick, &pts, &err)) {
            std::fprintf(stderr, "ablation_snapshot: %s\n",
                         err.empty() ? "smoke.scn not found"
                                     : err.c_str());
            return 1;
        }
    }

    // 1. Image mechanics per point.
    std::vector<ImageCost> costs;
    std::printf("%-8s %10s %12s %10s %12s\n", "point", "image_KB",
                "save_ms", "restore_ms", "saved_tick");
    for (std::size_t i = 0; i < pts.size(); ++i) {
        costs.push_back(measureImage(sc, pts[i]));
        const ImageCost &c = costs.back();
        std::printf("%-8zu %10.1f %12.2f %10.2f %12llu\n", i,
                    c.bytes / 1024.0, c.saveMs, c.restoreMs,
                    (unsigned long long)c.savedTick);
    }

    // 2. Cold sweep vs restored sweep.
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "misp_ablation_snapshot";
    fs::create_directories(dir);

    driver::RunnerOptions cold;
    cold.hostLines = false;
    auto c0 = std::chrono::steady_clock::now();
    std::vector<driver::PointResult> coldRun =
        driver::ScenarioRunner(cold).runAll(sc, pts);
    auto c1 = std::chrono::steady_clock::now();

    driver::RunnerOptions save = cold;
    save.snapshotSaveDir = dir.string();
    std::vector<driver::PointResult> saveRun =
        driver::ScenarioRunner(save).runAll(sc, pts);

    driver::RunnerOptions warm = cold;
    warm.snapshotLoadDir = dir.string();
    auto w0 = std::chrono::steady_clock::now();
    std::vector<driver::PointResult> warmRun =
        driver::ScenarioRunner(warm).runAll(sc, pts);
    auto w1 = std::chrono::steady_clock::now();

    const double coldSeconds = seconds(c0, c1);
    const double warmSeconds = seconds(w0, w1);
    const double speedup =
        warmSeconds > 0 ? coldSeconds / warmSeconds : 0.0;

    // 3. Determinism contract.
    bool identical = true;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        identical = identical && coldRun[i].run.ok() &&
                    saveRun[i].run.ok() && warmRun[i].run.ok() &&
                    coldRun[i].run.ticks == saveRun[i].run.ticks &&
                    coldRun[i].run.ticks == warmRun[i].run.ticks &&
                    coldRun[i].run.instsRetired ==
                        warmRun[i].run.instsRetired &&
                    coldRun[i].run.events == warmRun[i].run.events;
    }

    std::printf("\nsweep (%zu points): cold %.2fs, from-snapshot %.2fs "
                "-> %.2fx (%s)\n",
                pts.size(), coldSeconds, warmSeconds, speedup,
                identical ? "identical results" : "DIVERGED");

    FILE *json = std::fopen("BENCH_snapshot.json", "w");
    if (json) {
        std::fprintf(json, "{\n  \"scenario\": \"%s\",\n", sc.name.c_str());
        std::fprintf(json, "  \"warmup_ticks\": %llu,\n",
                     (unsigned long long)sc.snapshotWarmupTicks);
        std::fprintf(json, "  \"points\": [\n");
        for (std::size_t i = 0; i < costs.size(); ++i) {
            std::fprintf(
                json,
                "    {\"image_bytes\": %llu, \"save_ms\": %.2f, "
                "\"restore_ms\": %.2f, \"saved_tick\": %llu}%s\n",
                (unsigned long long)costs[i].bytes, costs[i].saveMs,
                costs[i].restoreMs,
                (unsigned long long)costs[i].savedTick,
                i + 1 < costs.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n  \"cold_seconds\": %.3f,\n"
                     "  \"warm_seconds\": %.3f,\n"
                     "  \"sweep_speedup\": %.3f,\n"
                     "  \"identical\": %s\n}\n",
                     coldSeconds, warmSeconds, speedup,
                     identical ? "true" : "false");
        std::fclose(json);
        std::printf("wrote BENCH_snapshot.json\n");
    }

    fs::remove_all(dir);
    if (!identical) {
        std::printf("FAIL: restored runs diverged from cold runs\n");
        return 1;
    }
    return 0;
}
