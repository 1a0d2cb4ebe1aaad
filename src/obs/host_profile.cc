#include "obs/host_profile.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>

namespace misp::obs {

namespace {

/** Log-scale histogram bucket upper bounds, seconds. */
const double kBuckets[] = {0.001, 0.01, 0.1, 1.0, 10.0, 100.0};
constexpr std::size_t kNumBuckets =
    sizeof(kBuckets) / sizeof(kBuckets[0]) + 1; // + overflow

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

struct PhaseAgg {
    double total = 0;
    double max = 0;
    std::uint64_t hist[kNumBuckets] = {};

    void
    add(double v)
    {
        total += v;
        max = std::max(max, v);
        std::size_t b = 0;
        while (b < kNumBuckets - 1 && v > kBuckets[b])
            ++b;
        ++hist[b];
    }
};

void
writePhase(std::ostream &os, const char *name, const PhaseAgg &agg,
           std::size_t n)
{
    os << "    \"" << name << "\": {\"total_s\": " << num(agg.total)
       << ", \"mean_s\": " << num(n ? agg.total / double(n) : 0)
       << ", \"max_s\": " << num(agg.max) << ", \"histogram\": [";
    for (std::size_t b = 0; b < kNumBuckets; ++b)
        os << (b ? ", " : "") << agg.hist[b];
    os << "]}";
}

} // namespace

void
writeProfileJson(std::ostream &os, std::size_t points,
                 const std::function<PointProfile(std::size_t)> &point)
{
    PhaseAgg parse, warmup, run, serialize;
    double hostTotal = 0;
    std::uint64_t instsTotal = 0;
    // Keyed by engine name; std::map gives deterministic key order.
    struct EngineAgg {
        std::uint64_t points = 0;
        std::uint64_t insts = 0;
        double hostS = 0;
    };
    std::map<std::string, EngineAgg> engines;

    std::size_t simulated = 0;
    for (std::size_t i = 0; i < points; ++i) {
        const PointProfile p = point(i);
        if (p.reused)
            continue;
        ++simulated;
        parse.add(p.phases.parse);
        warmup.add(p.phases.warmup);
        run.add(p.phases.run);
        serialize.add(p.phases.serialize);
        hostTotal += p.hostSeconds;
        instsTotal += p.instsRetired;
        EngineAgg &e = engines[p.engine];
        ++e.points;
        e.insts += p.instsRetired;
        e.hostS += p.hostSeconds;
    }

    os << "{\n";
    os << "  \"points\": " << points << ",\n";
    os << "  \"points_simulated\": " << simulated << ",\n";
    os << "  \"points_reused\": " << points - simulated << ",\n";
    os << "  \"host_seconds\": " << num(hostTotal) << ",\n";
    os << "  \"insts_retired\": " << instsTotal << ",\n";
    os << "  \"histogram_bucket_upper_s\": [";
    for (std::size_t b = 0; b < kNumBuckets - 1; ++b)
        os << (b ? ", " : "") << num(kBuckets[b]);
    os << "],\n";
    os << "  \"phases\": {\n";
    writePhase(os, "parse", parse, simulated);
    os << ",\n";
    writePhase(os, "warmup", warmup, simulated);
    os << ",\n";
    writePhase(os, "run", run, simulated);
    os << ",\n";
    writePhase(os, "serialize", serialize, simulated);
    os << "\n  },\n";
    os << "  \"engines\": {\n";
    bool first = true;
    for (const auto &[name, e] : engines) {
        if (!first)
            os << ",\n";
        first = false;
        double mips =
            e.hostS > 0 ? double(e.insts) / e.hostS / 1e6 : 0;
        os << "    \"" << name << "\": {\"points\": " << e.points
           << ", \"insts\": " << e.insts
           << ", \"host_s\": " << num(e.hostS)
           << ", \"mips\": " << num(mips) << "}";
    }
    os << "\n  }\n";
    os << "}\n";
}

} // namespace misp::obs
