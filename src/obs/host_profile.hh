/**
 * @file
 * Plane 2 of the observability subsystem: host-profile aggregation.
 *
 * HOST-SIDE ONLY (see host_run_log.hh for the quarantine rules). The
 * harness stamps every point with wall-clock phase timings —
 * parse/warmup/run/serialize — and `mispsim --profile FILE` folds them
 * into a summary: per-phase totals and histograms, per-engine
 * host-MIPS, and the process's peak RSS. Phase values ride inside RunRecord next to hostSeconds,
 * and like hostSeconds they are excluded from all determinism
 * artifacts (frames, snapshots, traces).
 */

#ifndef MISP_OBS_HOST_PROFILE_HH
#define MISP_OBS_HOST_PROFILE_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace misp::obs {

/** Wall-clock seconds per harness phase of one point. */
struct HostPhases {
    double parse = 0;     ///< workload build + guest app load
    double warmup = 0;    ///< warmup leg + image write, or image restore
    double run = 0;       ///< the measured run/resume leg
    double serialize = 0; ///< harvest, stats dump, record encode
};

/** One point's contribution to a --profile summary. */
struct PointProfile {
    std::string engine;
    HostPhases phases;
    double hostSeconds = 0;
    double hostMips = 0;
    std::uint64_t instsRetired = 0;
    /** The point took a finished point's record instead of running. */
    bool reused = false;
};

/**
 * A `--profile` summary, folded in as points finish, so a sweep keeps
 * no per-point profile: how many points simulated and how many reused
 * a finished point's record, then — over the simulated points only, so
 * host throughput counts only instructions this process executed —
 * wall/instruction totals, per-phase {total_s, mean_s, max_s,
 * histogram} (fixed log-scale buckets), and per-engine {points, insts,
 * host_s, mips}.
 */
class HostProfile
{
  public:
    /** Log-scale histogram bucket upper bounds, seconds, + overflow. */
    static constexpr std::size_t kNumBuckets = 7;

    /** Fold in one finished point. */
    void add(const PointProfile &p);

    /** The summary as JSON, with `peak_rss_mb`: this process's peak
     *  resident set size so far (getrusage), in MiB. */
    void writeJson(std::ostream &os) const;

  private:
    struct Phase {
        double total = 0;
        double max = 0;
        std::uint64_t hist[kNumBuckets] = {};

        void add(double v);
    };
    struct Engine {
        std::uint64_t points = 0;
        std::uint64_t insts = 0;
        double hostS = 0;
    };

    std::size_t points_ = 0;
    std::size_t simulated_ = 0;
    Phase parse_, warmup_, run_, serialize_;
    double hostTotal_ = 0;
    std::uint64_t instsTotal_ = 0;
    /** Keyed by engine name; std::map gives deterministic key order. */
    std::map<std::string, Engine> engines_;
};

} // namespace misp::obs

#endif // MISP_OBS_HOST_PROFILE_HH
