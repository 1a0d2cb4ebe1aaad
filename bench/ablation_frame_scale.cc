/**
 * @file
 * MetricFrame scale ablation: what the interned-id tuple indexes buy
 * at sweep sizes the paper figures never reach (10^2..10^5 rows) —
 * and what they cost to build.
 *
 * For each synthetic sweep size, one frame is built and queried two
 * ways: through its hashed coord-tuple indexes, and through
 * LinearWalk below — the pre-index string-compare walks, rebuilt over
 * the frame's public row()/at() API for exactly this measurement.
 * Three phases are timed per size:
 *
 *   build    addRow + finalize (the index-construction overhead)
 *   lookup   a representative query mix — full-tuple findRow,
 *            cross-axis rowWithOverrides, axis-baseline resolution —
 *            over rows spread across the whole frame
 *   emit     writeJson into a discarding stream (the streaming
 *            emitter's row throughput)
 *
 * Linear lookups at the larger sizes are sampled (the O(rows) walk
 * is the thing being measured; running the full mix would take
 * minutes) and reported per-lookup, so the speedup column compares
 * like with like. The contract is asserted, not just reported:
 * indexed lookups must beat the linear walk by >= 10x at 10^4 rows,
 * and both must answer every sampled query identically.
 * VmHWM (peak RSS) after the largest build rides along as the memory
 * proxy. Results land in BENCH_frame_scale.json so CI keeps a
 * trajectory.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/metric_frame.hh"

using namespace misp;
using harness::MetricFrame;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Discards everything, counts bytes: the emit-throughput sink. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    int overflow(int c) override
    {
        ++bytes;
        return c;
    }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }
};

/** VmHWM (peak resident set) in kB from /proc/self/status; 0 when
 *  unavailable (non-Linux). */
std::uint64_t
peakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            std::sscanf(line + 6, "%llu",
                        reinterpret_cast<unsigned long long *>(&kb));
            break;
        }
    }
    std::fclose(f);
    return kb;
}

constexpr const char *kMachines[] = {"1p", "misp"};

/** A synthetic sweep of @p points rows: two machines x two axes, the
 *  same shape the scenario grids produce (machines innermost, axis
 *  values as spelled strings). */
struct Sweep {
    std::vector<std::string> aValues, bValues;
    std::size_t combos = 0;

    explicit Sweep(std::size_t points)
    {
        combos = points / 2;
        std::size_t na = 1;
        while (na * na < combos)
            ++na;
        std::size_t nb = (combos + na - 1) / na;
        combos = na * nb;
        for (std::size_t i = 0; i < na; ++i)
            aValues.push_back(std::to_string(1000 + i));
        for (std::size_t j = 0; j < nb; ++j)
            bValues.push_back(std::to_string(100 + j));
    }

    std::size_t rows() const { return combos * 2; }

    MetricFrame build() const
    {
        MetricFrame frame;
        harness::RunRecord run;
        run.status = harness::RunStatus::Completed;
        run.valid = true;
        for (const std::string &a : aValues) {
            for (const std::string &b : bValues) {
                for (const char *machine : kMachines) {
                    run.ticks = 1000000 + run.events.timer;
                    run.instsRetired = 500000;
                    ++run.events.timer;
                    frame.addRow(machine, "dense_mvm", 0,
                                 {{"machine.a", a}, {"machine.b", b}},
                                 run);
                }
            }
        }
        frame.finalize("1p");
        return frame;
    }
};

/** The pre-index lookups: O(rows) string-compare walks over the
 *  frame's public row API, answering exactly what the indexed
 *  MetricFrame methods of the same names answer. */
struct LinearWalk {
    const MetricFrame &frame;

    const MetricFrame::Row &row(std::size_t r) const
    {
        return frame.row(r);
    }

    /** First row on @p machine whose coordinates contain @p coords. */
    std::size_t findRow(const std::string &machine,
                        const std::vector<MetricFrame::Coord> &coords)
        const
    {
        for (std::size_t r = 0; r < frame.numRows(); ++r) {
            if (frame.row(r).machine != machine)
                continue;
            bool match = true;
            for (const MetricFrame::Coord &want : coords) {
                bool found = false;
                for (const MetricFrame::Coord &have : frame.row(r).coords)
                    found = found || have == want;
                match = match && found;
            }
            if (match)
                return r;
        }
        return MetricFrame::npos;
    }

    std::size_t
    rowWithOverrides(std::size_t g, const std::string &machine,
                     const std::vector<MetricFrame::Coord> &overrides) const
    {
        std::vector<MetricFrame::Coord> want = frame.groupCoords(g);
        for (const MetricFrame::Coord &o : overrides) {
            for (MetricFrame::Coord &c : want) {
                if (c.first == o.first)
                    c.second = o.second;
            }
        }
        for (std::size_t r = 0; r < frame.numRows(); ++r) {
            if (frame.row(r).machine == machine &&
                frame.row(r).coords == want)
                return r;
        }
        return MetricFrame::npos;
    }

    std::size_t axisBaselineRow(std::size_t r, const std::string &axis) const
    {
        const MetricFrame::Row &of = frame.row(r);
        for (std::size_t cand = 0; cand < frame.numRows(); ++cand) {
            const MetricFrame::Row &c = frame.row(cand);
            if (c.machine != of.machine ||
                c.coords.size() != of.coords.size())
                continue;
            bool match = true;
            for (std::size_t i = 0; i < of.coords.size(); ++i) {
                if (of.coords[i].first != axis)
                    match = match && c.coords[i] == of.coords[i];
            }
            if (match)
                return cand;
        }
        return MetricFrame::npos;
    }
};

/** The query mix, @p samples groups spread across the frame, through
 *  @p frame's indexes or a LinearWalk. Returns a fold of every answer
 *  so the differential check (and the optimizer) can't skip work. */
template <class Lookups>
std::uint64_t
lookupMix(const Lookups &frame, const Sweep &sweep, std::size_t samples)
{
    std::uint64_t fold = 0;
    const std::size_t stride =
        sweep.combos <= samples ? 1 : sweep.combos / samples;
    for (std::size_t g = 0; g < sweep.combos; g += stride) {
        const std::string &a =
            sweep.aValues[(g / sweep.bValues.size()) %
                          sweep.aValues.size()];
        const std::string &b = sweep.bValues[g % sweep.bValues.size()];
        // Full-tuple findRow.
        std::size_t r = frame.findRow(
            "misp", {{"machine.a", a}, {"machine.b", b}});
        fold = fold * 31 + r;
        if (r == MetricFrame::npos)
            continue;
        std::size_t group = frame.row(r).group;
        // Cross-axis selector: same coords, first machine.b value.
        fold = fold * 31 +
               frame.rowWithOverrides(
                   group, "misp",
                   {{"machine.b", sweep.bValues.front()}});
        // [report] baseline_axis resolution.
        fold = fold * 31 + frame.axisBaselineRow(r, "machine.a");
    }
    return fold;
}

struct SizeResult {
    std::size_t points = 0;
    double buildMs = 0;
    double lookupIndexedNs = 0, lookupLinearNs = 0;
    double emitMs = 0;
    std::uint64_t emitBytes = 0;
    std::size_t indexedSamples = 0, linearSamples = 0;

    double speedup() const
    {
        return lookupIndexedNs > 0 ? lookupLinearNs / lookupIndexedNs
                                   : 0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = bench::parseBenchFlags(argc, argv);
    setQuietLogging(true);

    std::vector<std::size_t> sizes = {100, 1000, 10000};
    if (!quick)
        sizes.push_back(100000);

    std::printf("# MetricFrame scale: indexed vs linear lookups%s\n",
                quick ? " (quick)" : "");
    std::printf("%8s %12s %12s %12s %9s %10s\n", "points", "build-ms",
                "lookup-idx-ns", "lookup-lin-ns", "speedup", "emit-MB/s");

    std::vector<SizeResult> results;
    bool failed = false;
    for (std::size_t points : sizes) {
        Sweep sweep(points);
        SizeResult res;
        res.points = sweep.rows();

        double t0 = now();
        const MetricFrame indexed = sweep.build();
        double t1 = now();
        res.buildMs = (t1 - t0) * 1e3;
        const LinearWalk linear{indexed};

        // Differential check first: both strategies must answer the
        // sampled mix identically (on a capped sample so the linear
        // walk stays affordable).
        const std::size_t diffSamples = 64;
        if (lookupMix(indexed, sweep, diffSamples) !=
            lookupMix(linear, sweep, diffSamples)) {
            std::printf(
                "FAIL: indexed and linear lookups disagree at %zu "
                "points\n",
                res.points);
            failed = true;
        }

        // Indexed: the full mix, repeated at small sizes so the
        // per-lookup time has enough signal.
        const std::size_t reps = sweep.combos >= 10000 ? 1 : 10;
        const std::size_t nIdx = reps * 3 * sweep.combos;
        t0 = now();
        for (std::size_t rep = 0; rep < reps; ++rep)
            lookupMix(indexed, sweep, sweep.combos);
        t1 = now();
        res.indexedSamples = nIdx;
        res.lookupIndexedNs = (t1 - t0) * 1e9 / double(nIdx);

        // Linear: sampled (each query walks O(rows)).
        const std::size_t linSamples =
            sweep.combos <= 500 ? sweep.combos : 500;
        t0 = now();
        lookupMix(linear, sweep, linSamples);
        t1 = now();
        const std::size_t stride = sweep.combos <= linSamples
                                       ? 1
                                       : sweep.combos / linSamples;
        const std::size_t nLin =
            3 * ((sweep.combos + stride - 1) / stride);
        res.linearSamples = nLin;
        res.lookupLinearNs = (t1 - t0) * 1e9 / double(nLin);

        // Emit throughput (streaming writeJson, indexed frame).
        CountingBuf sink;
        std::ostream os(&sink);
        t0 = now();
        indexed.writeJson(os);
        t1 = now();
        res.emitMs = (t1 - t0) * 1e3;
        res.emitBytes = sink.bytes;

        std::printf("%8zu %12.2f %12.1f %12.1f %8.1fx %10.1f\n",
                    res.points, res.buildMs, res.lookupIndexedNs,
                    res.lookupLinearNs,
                    res.speedup(),
                    double(res.emitBytes) / 1e6 / (res.emitMs / 1e3));
        results.push_back(res);
    }

    const std::uint64_t hwmKb = peakRssKb();
    std::printf("# peak RSS (VmHWM): %llu kB\n",
                static_cast<unsigned long long>(hwmKb));

    // The contract: at 10^4 points the indexed lookups must beat the
    // linear walk by an order of magnitude.
    for (const SizeResult &res : results) {
        if (res.points >= 10000 && res.speedup() < 10.0) {
            std::printf("FAIL: lookup speedup %.1fx < 10x at %zu "
                        "points\n",
                        res.speedup(), res.points);
            failed = true;
        }
    }

    std::FILE *json = std::fopen("BENCH_frame_scale.json", "w");
    if (json) {
        std::fprintf(json, "{\n  \"bench\": \"frame_scale\",\n");
        std::fprintf(json, "  \"quick\": %s,\n",
                     quick ? "true" : "false");
        std::fprintf(json, "  \"peak_rss_kb\": %llu,\n",
                     static_cast<unsigned long long>(hwmKb));
        std::fprintf(json, "  \"sizes\": [");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const SizeResult &res = results[i];
            std::fprintf(json, "%s\n    {", i ? "," : "");
            std::fprintf(json, "\"points\": %zu, ", res.points);
            std::fprintf(json, "\"build_ms\": %.3f, ", res.buildMs);
            std::fprintf(json,
                         "\"lookup_indexed_ns\": %.1f, "
                         "\"lookup_linear_ns\": %.1f, ",
                         res.lookupIndexedNs, res.lookupLinearNs);
            std::fprintf(json, "\"lookup_speedup\": %.2f, ",
                         res.speedup());
            std::fprintf(json,
                         "\"emit_ms\": %.3f, \"emit_bytes\": %llu}",
                         res.emitMs,
                         static_cast<unsigned long long>(
                             res.emitBytes));
        }
        std::fprintf(json, "\n  ]\n}\n");
        std::fclose(json);
        std::printf("# wrote BENCH_frame_scale.json\n");
    }
    return failed ? 1 : 0;
}
