/**
 * @file
 * Ablation: the host execution engines — reference per-instruction
 * decode vs chained superblocks over the decode cache.
 *
 * Runs interpreter-bound kernels — straight-line, tight loop, and a
 * memory-touching loop — plus one full-system workload, each under
 * both engines, and reports:
 *
 *  - host throughput (retired guest instructions per host second) per
 *    engine — the median and interquartile range over interleaved reps
 *    (9, or 3 under --quick) — and the ratio of the medians, and
 *  - a model check: simulated cycles, retired counts, and final ticks
 *    must be bit-identical across the engines (an engine is a
 *    host-side optimization only). Any divergence fails the run.
 *
 * Results are also written to BENCH_decode_cache.json, with where they
 * came from (git revision, compiler, build type, CPU model), so CI keeps
 * a perf trajectory and docs/RESULTS.md renders its engines table from
 * it (tools/results_md.py).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/bare_machine.hh"
#include "isa/assembler.hh"
#include "sim/stats.hh"

using namespace misp;
using namespace misp::bench;

namespace {

const cpu::Engine kEngines[2] = {cpu::Engine::Reference,
                                 cpu::Engine::Superblock};

#if defined(__clang__)
constexpr const char *kCompiler = __VERSION__; // "Clang x.y.z ..."
#else
constexpr const char *kCompiler = "g++ " __VERSION__;
#endif

/** Median and quartiles of a leg's per-rep host throughput. */
struct Spread {
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
};

/** Quantile @p q of @p v by linear interpolation between order
 *  statistics. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Spread
spreadOf(const std::vector<double> &v)
{
    return Spread{quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75)};
}

struct KernelResult {
    std::string name;
    Tick simCycles[2] = {0, 0};
    std::uint64_t retired[2] = {0, 0};
    Spread mips[2];
    double sbSpeedup = 0.0; ///< superblock vs ref, of the medians
    bool identical = false;
};

/** The first line of `cmd`'s stdout, or "unknown". */
std::string
firstLineOf(const std::string &cmd)
{
    std::string out;
    if (FILE *p = popen(cmd.c_str(), "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p))
            out = buf;
        pclose(p);
    }
    out = out.substr(0, out.find('\n'));
    return out.empty() ? "unknown" : out;
}

/** The `model name` of the host's first CPU, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t at = line.find(':');
        if (line.rfind("model name", 0) == 0 && at != std::string::npos &&
            at + 2 <= line.size())
            return line.substr(at + 2);
    }
    return "unknown";
}

/** Multi-page straight-line code: @p bodyInsts ALU ops in sequence,
 *  re-run @p reps times by one outer backward branch. */
std::string
straightLineSrc(unsigned bodyInsts, unsigned reps)
{
    std::string src = "main:\n    movi r1, 0\nouter:\n";
    for (unsigned i = 0; i < bodyInsts; ++i) {
        switch (i % 4) {
          case 0: src += "    addi r2, r2, 3\n"; break;
          case 1: src += "    xori r3, r2, 0x5a\n"; break;
          case 2: src += "    muli r4, r3, 7\n"; break;
          case 3: src += "    subi r5, r4, 1\n"; break;
        }
    }
    src += "    addi r1, r1, 1\n    cmpi r1, " + std::to_string(reps) +
           "\n    jcc.lt outer\n    halt\n";
    return src;
}

std::string
tightLoopSrc(unsigned iters)
{
    return R"(
        main:
            movi r1, 0
        loop:
            addi r1, r1, 1
            muli r2, r1, 3
            xori r3, r2, 0x55
            cmpi r1, )" +
           std::to_string(iters) + R"(
            jcc.lt loop
            halt
    )";
}

std::string
memLoopSrc(unsigned iters)
{
    // Loads + stores so the data-side TLB and the SMC write probe are
    // both exercised (stores land on data pages: O(1) bitmap test).
    return R"(
        main:
            movi r1, 0
            movi r4, 0x100000
        loop:
            ld8 r2, [r4+0]
            addi r2, r2, 1
            st8 [r4+0], r2
            addi r1, r1, 1
            cmpi r1, )" +
           std::to_string(iters) + R"(
            jcc.lt loop
            halt
    )";
}

struct Measured {
    Tick ticks = 0;
    Tick busyCycles = 0;
    std::uint64_t retired = 0;
    double seconds = 0.0;
};

Measured
runKernel(const std::string &src, cpu::Engine engine)
{
    harness::BareMachine m(src, engine);
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto t1 = std::chrono::steady_clock::now();
    Measured out;
    out.ticks = m.eq.curTick();
    out.busyCycles = m.seq.busyCycles();
    out.retired = m.seq.instsRetired();
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    return out;
}

KernelResult
compareKernel(const std::string &name, const std::string &src,
              unsigned reps)
{
    KernelResult r;
    r.name = name;
    // Interleave the engines within each rep, alternating which runs
    // first, so slow drift in background load hits both legs alike;
    // the median and quartiles then say how much one rep's number can
    // be trusted. Every rep of both engines must simulate the same
    // machine.
    Measured first;
    std::vector<double> mips[2];
    r.identical = true;
    for (unsigned i = 0; i < reps; ++i) {
        for (unsigned k = 0; k < 2; ++k) {
            const unsigned e = (i + k) % 2;
            const Measured m = runKernel(src, kEngines[e]);
            if (i == 0 && k == 0)
                first = m;
            r.identical = r.identical && m.ticks == first.ticks &&
                          m.busyCycles == first.busyCycles &&
                          m.retired == first.retired;
            mips[e].push_back(static_cast<double>(m.retired) / m.seconds /
                              1e6);
        }
    }
    for (unsigned e = 0; e < 2; ++e) {
        r.simCycles[e] = first.busyCycles;
        r.retired[e] = first.retired;
        r.mips[e] = spreadOf(mips[e]);
    }
    r.sbSpeedup = r.mips[1].median / r.mips[0].median;
    return r;
}

/** Locate the checked-in spec @p name (driver::findScenarioFile), load
 *  it, and run every point of its grid ([quick] overrides applied when
 *  @p quick). On failure, prints a diagnostic and returns false. */
bool
runSpec(const std::string &name, const char *argv0, bool quick,
        driver::Scenario *sc, std::vector<driver::PointResult> *results)
{
    const std::string path = driver::findScenarioFile(name, argv0);
    if (path.empty()) {
        std::fprintf(stderr,
                     "ablation_decode_cache: scenario '%s' not found (run "
                     "from the repo root)\n",
                     name.c_str());
        return false;
    }
    driver::SpecFile spec;
    std::vector<driver::ScenarioPoint> grid;
    std::string err;
    if (!driver::SpecFile::parseFile(path, &spec, &err) ||
        !driver::Scenario::fromSpec(spec, sc, &err) ||
        !sc->expandPoints(quick, &grid, &err)) {
        std::fprintf(stderr, "ablation_decode_cache: %s\n", err.c_str());
        return false;
    }
    *results = driver::ScenarioRunner().runAll(*sc, grid);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuietLogging(true);
    const bool quick = parseBenchFlags(argc, argv);
    const unsigned scale = quick ? 1 : 4;
    const unsigned reps = quick ? 3 : 9;

    printHeader("Ablation: host execution engines "
                "(ref vs chained superblocks)");

    std::vector<KernelResult> results;
    results.push_back(compareKernel(
        "straight_line", straightLineSrc(600, 200 * scale), reps));
    results.push_back(
        compareKernel("tight_loop", tightLoopSrc(50'000 * scale), reps));
    results.push_back(
        compareKernel("mem_loop", memLoopSrc(30'000 * scale), reps));

    // Full-system check: one Figure-4 workload end to end under both
    // engines — the machine pair lives in the spec, whose [report]
    // asserts also pin the bit-identity contract.
    driver::Scenario sc;
    std::vector<driver::PointResult> grid;
    // Deliberately NOT honoring --engine here: the spec's machine pair
    // pins one engine per leg, and the global override would silently
    // collapse the A/B onto one engine.
    if (!runSpec("ablation_decode_cache.scn", argv[0], quick, &sc, &grid))
        return 1;
    bool fullIdentical = false;
    {
        // Grid order: the spec's two machines, as declared.
        MISP_ASSERT(grid.size() == 2 && grid[0].coords.machine() == "dc_off" &&
                    grid[1].coords.machine() == "dc_sb");
        const driver::PointResult *rOff = &grid[0];
        const driver::PointResult *rSb = &grid[1];
        fullIdentical = rSb->run.ticks == rOff->run.ticks &&
                        rOff->run.valid && rSb->run.valid &&
                        rSb->run.instsRetired == rOff->run.instsRetired;
        std::printf("\nfull-system dense_mvm: ref=%llu sb=%llu ticks "
                    "(%s), host %.2f / %.2f MIPS\n",
                    (unsigned long long)rOff->run.ticks,
                    (unsigned long long)rSb->run.ticks,
                    fullIdentical ? "identical" : "DIVERGED",
                    rOff->run.hostMips, rSb->run.hostMips);
    }

    std::printf("\nmedian MIPS over %u interleaved reps per engine "
                "[interquartile range]\n",
                reps);
    std::printf("%-14s %12s %21s %21s %8s  %s\n", "kernel", "sim_cycles",
                "mips_ref", "mips_sb", "sb/ref", "model");
    bool allIdentical = fullIdentical;
    double minSbSpeedup = 1e30;
    for (const KernelResult &r : results) {
        std::printf("%-14s %12llu %7.2f [%5.2f-%5.2f] %7.2f [%5.2f-%5.2f] "
                    "%7.2fx  %s\n",
                    r.name.c_str(), (unsigned long long)r.simCycles[0],
                    r.mips[0].median, r.mips[0].q1, r.mips[0].q3,
                    r.mips[1].median, r.mips[1].q1, r.mips[1].q3,
                    r.sbSpeedup, r.identical ? "identical" : "DIVERGED");
        allIdentical = allIdentical && r.identical;
        minSbSpeedup = std::min(minSbSpeedup, r.sbSpeedup);
    }

    // Machine-readable trajectory for CI.
    // Described before the JSON is opened: truncating the checked-in
    // file would make the tree read as dirty.
    const std::string revision =
        firstLineOf(std::string("git -C '") + MISP_SOURCE_ROOT +
                    "' describe --always --dirty --abbrev=40 2>/dev/null");
    FILE *json = std::fopen("BENCH_decode_cache.json", "w");
    if (json) {
        std::fprintf(
            json,
            "{\n  \"provenance\": {\"git_sha\": %s, \"compiler\": %s, "
            "\"build_type\": %s, \"cpu_model\": %s},\n"
            "  \"reps\": %u,\n  \"kernels\": [\n",
            stats::jsonQuote(revision).c_str(),
            stats::jsonQuote(kCompiler).c_str(),
            stats::jsonQuote(MISP_BUILD_TYPE).c_str(),
            stats::jsonQuote(cpuModel()).c_str(), reps);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const KernelResult &r = results[i];
            std::fprintf(
                json,
                "    {\"name\": \"%s\", \"mips_ref\": %.2f, "
                "\"mips_ref_iqr\": [%.2f, %.2f], "
                "\"mips_superblock\": %.2f, "
                "\"mips_superblock_iqr\": [%.2f, %.2f], "
                "\"speedup_superblock\": %.3f, "
                "\"sim_cycles\": %llu, \"retired\": %llu, "
                "\"identical\": %s}%s\n",
                r.name.c_str(), r.mips[0].median, r.mips[0].q1,
                r.mips[0].q3, r.mips[1].median, r.mips[1].q1,
                r.mips[1].q3, r.sbSpeedup,
                (unsigned long long)r.simCycles[0],
                (unsigned long long)r.retired[0],
                r.identical ? "true" : "false",
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n  \"min_superblock_speedup\": %.3f,\n"
                     "  \"model_identical\": %s\n}\n",
                     minSbSpeedup, allIdentical ? "true" : "false");
        std::fclose(json);
        std::printf("\nwrote BENCH_decode_cache.json (min superblock "
                    "median speedup %.2fx over ref)\n",
                    minSbSpeedup);
    }

    if (!allIdentical) {
        std::printf("FAIL: simulated results diverged across "
                    "execution engines\n");
        return 1;
    }
    return 0;
}
