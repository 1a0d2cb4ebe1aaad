#include "obs/host_profile.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>

#include <sys/resource.h>

namespace misp::obs {

namespace {

/** Log-scale histogram bucket upper bounds, seconds. */
const double kBuckets[] = {0.001, 0.01, 0.1, 1.0, 10.0, 100.0};
static_assert(sizeof(kBuckets) / sizeof(kBuckets[0]) + 1 ==
              HostProfile::kNumBuckets);

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

} // namespace

void
HostProfile::Phase::add(double v)
{
    total += v;
    max = std::max(max, v);
    std::size_t b = 0;
    while (b < kNumBuckets - 1 && v > kBuckets[b])
        ++b;
    ++hist[b];
}

void
HostProfile::add(const PointProfile &p)
{
    ++points_;
    if (p.reused)
        return;
    ++simulated_;
    parse_.add(p.phases.parse);
    warmup_.add(p.phases.warmup);
    run_.add(p.phases.run);
    serialize_.add(p.phases.serialize);
    hostTotal_ += p.hostSeconds;
    instsTotal_ += p.instsRetired;
    Engine &e = engines_[p.engine];
    ++e.points;
    e.insts += p.instsRetired;
    e.hostS += p.hostSeconds;
}

void
HostProfile::writeJson(std::ostream &os) const
{
    auto writePhase = [&](const char *name, const Phase &agg) {
        os << "    \"" << name << "\": {\"total_s\": " << num(agg.total)
           << ", \"mean_s\": "
           << num(simulated_ ? agg.total / double(simulated_) : 0)
           << ", \"max_s\": " << num(agg.max) << ", \"histogram\": [";
        for (std::size_t b = 0; b < kNumBuckets; ++b)
            os << (b ? ", " : "") << agg.hist[b];
        os << "]}";
    };
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);

    os << "{\n";
    os << "  \"points\": " << points_ << ",\n";
    os << "  \"points_simulated\": " << simulated_ << ",\n";
    os << "  \"points_reused\": " << points_ - simulated_ << ",\n";
    os << "  \"host_seconds\": " << num(hostTotal_) << ",\n";
    os << "  \"insts_retired\": " << instsTotal_ << ",\n";
    // Linux reports ru_maxrss in KiB.
    os << "  \"peak_rss_mb\": " << num(double(ru.ru_maxrss) / 1024.0)
       << ",\n";
    os << "  \"histogram_bucket_upper_s\": [";
    for (std::size_t b = 0; b < kNumBuckets - 1; ++b)
        os << (b ? ", " : "") << num(kBuckets[b]);
    os << "],\n";
    os << "  \"phases\": {\n";
    writePhase("parse", parse_);
    os << ",\n";
    writePhase("warmup", warmup_);
    os << ",\n";
    writePhase("run", run_);
    os << ",\n";
    writePhase("serialize", serialize_);
    os << "\n  },\n";
    os << "  \"engines\": {\n";
    bool first = true;
    for (const auto &[name, e] : engines_) {
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
