/**
 * @file
 * Machine-state snapshots: serialize a complete simulated machine to a
 * versioned binary image and reconstitute it bit-identically.
 *
 * The contract is exact continuation determinism: for a deterministic
 * run, (warmup to tick T -> save -> restore -> run to completion)
 * produces the same simulated results — ticks, Table-1 events, retired
 * instructions, validation — as the uninterrupted run. That is what
 * lets a sweep pay a workload's boot + warmup once and fork every grid
 * point from the image, and what makes the crash-isolated multi-process
 * `--jobs` backend byte-compatible with in-process runs.
 *
 * What the image holds (one CRC-guarded section each):
 *   CONFIG  machine topology + knobs + runtime backend
 *   META    clock (tick, event sequence counter), target pid, the
 *           submitting RunRequest's hash, label
 *   PMEM    physical frames + allocator state
 *   KERNEL  processes (address spaces, page tables), threads,
 *           scheduler queues, futex/join queues, device-IRQ RNG,
 *           pending sleep wakeups
 *   PROCS   per-processor state: sequencers (contexts, TLBs, pending
 *           signals, run-slice events), proxy queues, interrupt events,
 *           the Ring-0 episode in flight (phase, kernel work, kernel
 *           result, phase event) and fabric deliveries in flight
 *   RT      runtime state (shred gangs / futex phase machines)
 *   STATS   the full statistics tree, by dotted path
 *
 * What it deliberately omits: decode caches, decoded-block references,
 * and last-translation caches — pure derivatives of guest memory that
 * rebuild lazily with identical modeled cycles (only the host-side
 * decode-cache hit/miss instrumentation counters restart cold).
 *
 * Snapshot points. Every pending event is a typed event whose owner
 * archives it as data (a member event's schedule, or a pooled
 * occurrence's fields plus its original queue insertion sequence), so
 * a machine can be saved at any event boundary — mid-episode included.
 * Saving fails closed if any pending event is claimed by no component.
 */

#ifndef MISP_SNAPSHOT_SNAPSHOT_HH
#define MISP_SNAPSHOT_SNAPSHOT_HH

#include <memory>
#include <string>

#include "harness/run_record.hh"
#include "snapshot/serialize.hh"

namespace misp::snap {

/** Image bookkeeping read back by restore. */
struct SnapshotMeta {
    Tick savedTick = 0;
    std::uint64_t targetPid = 0;
    /** configHash() of the RunRequest that produced the image; restore
     *  fails closed when the submitting request disagrees. */
    std::uint64_t cfgHash = 0;
    std::string label;
};

/**
 * Serialize @p exp, at whatever event boundary it stands, into
 * @p imageOut. @p cfgHash and @p label are archived for restore-time
 * validation. Returns false + @p err if a pending event belongs to no
 * component that archives it.
 */
bool saveExperiment(harness::Experiment &exp, os::Process *target,
                    std::uint64_t cfgHash, const std::string &label,
                    std::string *imageOut, std::string *err);

/** A machine reconstituted from an image. */
struct RestoredExperiment {
    std::unique_ptr<harness::Experiment> exp;
    /** The measured target process (resolved from the archived pid). */
    os::Process *target = nullptr;
    SnapshotMeta meta;
};

/**
 * Rebuild a machine from @p image. Fails closed (false + @p err, no
 * partially-built machine) on a bad magic, version, CRC, or internal
 * inconsistency. Callers continue with
 * Experiment::resumeToCompletion().
 */
bool restoreExperiment(const std::string &image, RestoredExperiment *out,
                       std::string *err);

/** Read just the META section of @p image (CRC-verified) — the cheap
 *  pre-flight that lets a config-hash mismatch be rejected at header
 *  cost instead of after a full machine rebuild. */
bool readSnapshotMeta(const std::string &image, SnapshotMeta *out,
                      std::string *err);

/**
 * Hash of everything about a RunRequest that shapes the simulation
 * from tick 0 — machine config, backend, target + background workloads
 * and their parameters, competitors, placement. Tick budgets, labels,
 * and host-side reporting knobs are excluded: restoring with a longer
 * budget is legitimate use. The hash gates --from-snapshot against
 * images produced by a different experiment.
 */
std::uint64_t configHash(const harness::RunRequest &req);

/** Whole-file helpers used by the run layer and the CLI. */
bool writeFileBytes(const std::string &path, const std::string &data,
                    std::string *err);
bool readFileBytes(const std::string &path, std::string *data,
                   std::string *err);

/**
 * RunRecord wire codec for the crash-isolated `--jobs` backend: a
 * worker child serializes its point's record over a pipe; the parent
 * reconstitutes it indistinguishably from an in-process run (the JSON
 * emitters see identical values, so artifacts stay byte-identical).
 */
std::string encodeRunRecord(const harness::RunRecord &rec);
bool decodeRunRecord(const std::string &data, harness::RunRecord *out,
                     std::string *err);

} // namespace misp::snap

#endif // MISP_SNAPSHOT_SNAPSHOT_HH
