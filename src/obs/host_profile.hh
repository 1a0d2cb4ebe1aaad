/**
 * @file
 * Plane 2 of the observability subsystem: host-profile aggregation.
 *
 * HOST-SIDE ONLY (see host_run_log.hh for the quarantine rules). The
 * harness stamps every point with wall-clock phase timings —
 * parse/warmup/run/serialize — and `mispsim --profile FILE` folds them
 * into a summary: per-phase totals and histograms, plus per-engine
 * host-MIPS. Phase values ride inside RunRecord next to hostSeconds,
 * and like hostSeconds they are excluded from all determinism
 * artifacts (frames, snapshots, traces).
 */

#ifndef MISP_OBS_HOST_PROFILE_HH
#define MISP_OBS_HOST_PROFILE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
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
 * Write the profile summary JSON over @p points points, @p point(i)
 * giving point i's contribution (formed on demand, never stored):
 * how many points simulated and how many reused a finished point's
 * record, then — over the simulated points only, so host throughput
 * counts only instructions this process executed — wall/instruction
 * totals, per-phase {total_s, mean_s, max_s, histogram} (fixed
 * log-scale buckets), and per-engine {points, insts, host_s, mips}.
 */
void writeProfileJson(
    std::ostream &os, std::size_t points,
    const std::function<PointProfile(std::size_t)> &point);

} // namespace misp::obs

#endif // MISP_OBS_HOST_PROFILE_HH
