/**
 * @file
 * Workload registry: the paper's evaluation suite (§5.2).
 *
 * RMS kernels (Recognition-Mining-Synthesis suite): ADAt, dense_mmm,
 * dense_mvm, dense_mvm_sym, gauss, kmeans, sparse_mvm, sparse_mvm_sym,
 * sparse_mvm_trans, svm_c, plus the RayTracer application. These are
 * fully reimplemented as multi-shredded guest programs doing real
 * (integer) computation; results are validated against host-side
 * reference implementations.
 *
 * SPEComp applications (swim, applu, galgel, equake, art): the sources
 * and Intel compilers are unavailable, so each is substituted by a
 * synthetic OpenMP-style loop-nest generator whose serializing-event
 * profile (serial-init pages, barrier cadence, syscall rates, AMS
 * syscall rate for art) is shaped after the paper's Table 1. See
 * DESIGN.md §2 for the substitution rationale.
 */

#ifndef MISP_WORKLOADS_WORKLOAD_HH
#define MISP_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/loader.hh"
#include "mem/address_space.hh"

namespace misp::wl {

/** Knobs shared by every workload builder. */
struct WorkloadParams {
    unsigned workers = 7;       ///< shreds (or worker threads) created
    std::uint64_t scale = 1;    ///< problem-size multiplier
    bool prefault = false;      ///< §5.3 page-probe optimization
    std::uint64_t seed = 42;    ///< deterministic input generation

    /** Per-workload knobs, set via `param.<key> = <value>` in scenario
     *  specs (setWorkloadParam strips the prefix). Interpretation is up
     *  to the builder (e.g. the RayTracer's `rows` scene size);
     *  builders ignore keys they do not consume. */
    std::vector<std::pair<std::string, std::string>> extra;

    /** Value of per-workload knob @p key parsed as an integer, or
     *  @p fallback when the knob is absent or unparseable. */
    std::uint64_t extraU64(const std::string &key,
                           std::uint64_t fallback) const;

    /** Same knobs, so the same built workload (builders are pure);
     *  ordered so a sweep's workload store can key a map on them. */
    auto operator<=>(const WorkloadParams &) const = default;
};

/**
 * A built workload instance.
 *
 * Contract: a builder is a pure function of its WorkloadParams, and a
 * built Workload is immutable. Loading copies its image into the guest
 * (`loadApp` takes it by const reference), and `validate` only reads
 * guest memory: every validator captures what it checks by value
 * (`makeIntArrayValidator`, specomp's lambda) and keeps no state
 * between calls. So one built instance may be loaded into any number of
 * machines, one after another; `harness::WorkloadStore` relies on that
 * to build each workload once per sweep.
 */
struct Workload {
    harness::GuestApp app;
    /** Host-side result check (empty = none). Reads guest memory after
     *  the run; returns true when the computation was correct. */
    std::function<bool(mem::AddressSpace &)> validate;
    /** Rough useful-work estimate (guest compute cycles), for sanity
     *  checks of speedup figures. */
    std::uint64_t workEstimate = 0;
};

using WorkloadBuilder = std::function<Workload(const WorkloadParams &)>;

struct WorkloadInfo {
    std::string name;
    std::string suite; ///< "rms" or "specomp" or "util"
    WorkloadBuilder build;
};

/** All registered workloads, in the paper's Figure-4 order. */
const std::vector<WorkloadInfo> &allWorkloads();

/** Utility workloads (suite "util", e.g. the spinner): loadable through
 *  findWorkload()/selectWorkloads() but never part of allWorkloads(),
 *  so figure suites and sweeps over "all" are unchanged. */
const std::vector<WorkloadInfo> &utilWorkloads();

/** Lookup by name across the figure suite and the utility workloads;
 *  nullptr if unknown. */
const WorkloadInfo *findWorkload(const std::string &name);

/**
 * Expand a workload selector into registry entries:
 *  - "all"        -> every figure workload (allWorkloads order),
 *  - "suite:<s>"  -> the figure workloads whose suite is <s>,
 *  - otherwise    -> the single named workload.
 * Returns an empty vector (and sets @p err when non-null) if nothing
 * matches.
 */
std::vector<const WorkloadInfo *>
selectWorkloads(const std::string &selector, std::string *err = nullptr);

/**
 * Set one WorkloadParams field from its scenario-spec key/value form:
 * "workers", "scale", "prefault", "seed", or a per-workload knob
 * "param.<key>" (stored in WorkloadParams::extra). Returns false (and
 * sets @p err when non-null) on an unknown key or unparseable value.
 */
bool setWorkloadParam(WorkloadParams &params, const std::string &key,
                      const std::string &value, std::string *err = nullptr);

// Individual builders (also reachable through the registry).
Workload buildAdat(const WorkloadParams &p);
Workload buildDenseMmm(const WorkloadParams &p);
Workload buildDenseMvm(const WorkloadParams &p);
Workload buildDenseMvmSym(const WorkloadParams &p);
Workload buildGauss(const WorkloadParams &p);
Workload buildKmeans(const WorkloadParams &p);
Workload buildSparseMvm(const WorkloadParams &p);
Workload buildSparseMvmSym(const WorkloadParams &p);
Workload buildSparseMvmTrans(const WorkloadParams &p);
Workload buildSvmC(const WorkloadParams &p);
Workload buildRaytracer(const WorkloadParams &p);
Workload buildSwim(const WorkloadParams &p);
Workload buildApplu(const WorkloadParams &p);
Workload buildGalgel(const WorkloadParams &p);
Workload buildEquake(const WorkloadParams &p);
Workload buildArt(const WorkloadParams &p);

/** A single-threaded CPU-bound process (Figure 7's competing load). */
Workload buildSpinner(const WorkloadParams &p);

} // namespace misp::wl

#endif // MISP_WORKLOADS_WORKLOAD_HH
