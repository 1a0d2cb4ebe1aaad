#include "run_record.hh"

#include <chrono>
#include <memory>
#include <sstream>

#include "sim/logging.hh"
#include "snapshot/snapshot.hh"

namespace misp::harness {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Everything measured after the simulation stops — shared by the cold,
 *  save-leg, and restored paths so a record can never depend on which
 *  path produced it. @p instsAtStart is the retired count already in
 *  the machine when this leg's wall clock started (nonzero only after
 *  a snapshot restore): the record's instsRetired stays the run total
 *  (byte-identical to a cold run), while host-throughput reporting
 *  covers only the instructions this process actually executed. */
void
harvest(RunRecord *out, Experiment &exp, os::Process *target,
        const wl::Workload &w, const RunRequest &req, RunOutcome outcome,
        double hostSeconds, std::uint64_t instsAtStart = 0)
{
    // Phase 2 timing: everything below is host-side bookkeeping.
    auto ts0 = Clock::now();

    out->status = outcome.status;
    out->ticks = outcome.ticks;
    out->instsRetired = exp.totalInstsRetired();
    std::uint64_t legInsts = out->instsRetired - instsAtStart;
    out->hostSeconds = hostSeconds;
    out->hostMips =
        hostSeconds > 0.0 ? legInsts / hostSeconds / 1e6 : 0.0;
    if (req.hostLine) {
        reportHost(req.label, legInsts, hostSeconds,
                   req.config.misp.engine);
    }

    out->valid = !w.validate || w.validate(target->addressSpace());

    out->events = snapshotEvents(exp.system().processor(0));

    if (req.fullStats) {
        std::ostringstream ss;
        exp.system().rootStats().dumpJson(ss);
        out->statsJson = ss.str();
    }

    out->phases.serialize = seconds(ts0, Clock::now());
}

/** One workload a point loads: its registry entry and build knobs. */
struct WorkloadKey {
    const wl::WorkloadInfo *info = nullptr;
    wl::WorkloadParams params;

    bool operator==(const WorkloadKey &) const = default;
};

struct BuiltWorkload {
    WorkloadKey key;
    std::shared_ptr<const wl::Workload> workload;
};

/** The workloads the previous point on this thread built. A built
 *  workload is immutable (workload.hh), so a point whose workloads
 *  match loads them again instead of rebuilding them. How often they
 *  match depends on the sweep's axis order and on which thread runs
 *  which point. Measured on the ledger's specs at --jobs 1: suite
 *  finds 32 of its 48 points' workloads here, multiprog 52 of 54 and
 *  grid 1250 of 2500 (its innermost axis, workload.workers, changes
 *  at every other point). At --jobs 4 a worker claims whole
 *  coordinate groups while one per worker remains (runner.cc), so its
 *  consecutive points stay grid neighbours: suite finds 29 of 48,
 *  multiprog 46 of 54 and grid about 1,800-1,900 of 2500. */
thread_local std::vector<BuiltWorkload> tlsPrevious;

const wl::WorkloadInfo *
findOrDie(const std::string &name, const char *role)
{
    const wl::WorkloadInfo *info = wl::findWorkload(name);
    if (!info)
        fatal("runOne: unknown %s '%s'", role, name.c_str());
    return info;
}

std::shared_ptr<const wl::Workload>
builtFor(const std::vector<BuiltWorkload> &built, const WorkloadKey &key)
{
    for (const BuiltWorkload &b : built) {
        if (b.key == key)
            return b.workload;
    }
    return nullptr;
}

/** The built workload for each of @p keys, in order. Takes the entries
 *  it needs from the previous point's set and drops the rest before it
 *  builds any miss, so no more workloads are alive at once than one
 *  point loads; the result is then the next point's previous set.
 *  Equal keys share one build. */
std::vector<std::shared_ptr<const wl::Workload>>
pointWorkloads(const std::vector<WorkloadKey> &keys)
{
    std::vector<BuiltWorkload> current;
    for (const WorkloadKey &key : keys) {
        if (builtFor(current, key))
            continue;
        if (auto hit = builtFor(tlsPrevious, key))
            current.push_back({key, std::move(hit)});
    }
    tlsPrevious.clear();
    for (const WorkloadKey &key : keys) {
        if (!builtFor(current, key))
            current.push_back(
                {key, std::make_shared<const wl::Workload>(
                          key.info->build(key.params))});
    }
    std::vector<std::shared_ptr<const wl::Workload>> out;
    out.reserve(keys.size());
    for (const WorkloadKey &key : keys)
        out.push_back(builtFor(current, key));
    tlsPrevious = std::move(current);
    return out;
}

RunRecord
snapshotFailure(const RunRequest &req, const std::string &what)
{
    warn("runOne[%s]: %s", req.label.c_str(), what.c_str());
    RunRecord out;
    out.status = RunStatus::SnapshotError;
    out.valid = false;
    out.note = what;
    return out;
}

/** The --from-snapshot path: reconstitute the machine from
 *  RunRequest::snapshotIn and continue to completion. The workload is
 *  still built host-side (or taken from the previous point) for its
 *  result validator; nothing is loaded into the guest.
 *  @p tEntry is runOne's entry time (the parse phase started there). */
RunRecord
runFromSnapshot(const RunRequest &req, const wl::Workload &w,
                Clock::time_point tEntry)
{
    auto tRestore0 = Clock::now();

    std::string image, err;
    if (!snap::readFileBytes(req.snapshotIn, &image, &err))
        return snapshotFailure(req, err);

    // Hash pre-flight from the META section alone: a stale image is
    // rejected at header cost, not after a full machine rebuild.
    snap::SnapshotMeta meta;
    if (!snap::readSnapshotMeta(image, &meta, &err))
        return snapshotFailure(req, err);
    if (meta.cfgHash != snap::configHash(req)) {
        return snapshotFailure(
            req, "snapshot '" + req.snapshotIn + "' was produced by a "
                 "different experiment configuration");
    }

    snap::RestoredExperiment restored;
    if (!snap::restoreExperiment(image, &restored, &err))
        return snapshotFailure(req, err);
    // Images are engine-neutral: the saver's host engine is neither
    // recorded nor hash-relevant, and the restoring run's choice wins.
    restored.exp->system().setEngine(req.config.misp.engine);
    if (!restored.target)
        return snapshotFailure(
            req, "snapshot '" + req.snapshotIn + "' has no target "
                 "process");

    // The restored clock already sits at the archive's processed-event
    // count, so the recorder's base lands there automatically — a cold
    // run reproduces this trace byte-for-byte with --trace-skip set to
    // the `base` value the trace metadata reports.
    EventQueue &eq = restored.exp->system().eventQueue();
    std::uint64_t base = std::max(req.traceSkip, eq.numProcessed());
    obs::TraceRecorder rec(eq, req.trace, base);
    obs::ScopedTrace attach(req.trace.enabled ? &rec : nullptr);
    obs::traceMarker(obs::TraceKind::SnapshotRestore, 0, 0,
                     eq.numProcessed());

    RunRecord out;
    std::uint64_t warmupInsts = restored.exp->totalInstsRetired();
    auto t0 = Clock::now();
    out.phases.parse = seconds(tEntry, tRestore0);
    out.phases.warmup = seconds(tRestore0, t0);
    RunOutcome outcome =
        restored.exp->resumeToCompletion(restored.target, req.maxTicks);
    auto t1 = Clock::now();
    out.phases.run = seconds(t0, t1);
    harvest(&out, *restored.exp, restored.target, w, req, outcome,
            seconds(t0, t1), warmupInsts);
    if (req.trace.enabled)
        out.trace = rec.take();
    return out;
}

} // namespace

RunRecord
runOne(const RunRequest &req)
{
    auto tEntry = Clock::now();

    // Target first, then background workloads, then the competitor.
    std::vector<WorkloadKey> keys = {
        {findOrDie(req.target.name, "workload"), req.target.params}};
    if (!req.snapshotIn.empty())
        return runFromSnapshot(req, *pointWorkloads(keys)[0], tEntry);
    for (const RunWorkload &bg : req.background)
        keys.push_back({findOrDie(bg.name, "background workload"),
                        bg.params});
    if (req.competitors > 0)
        keys.push_back({findOrDie(req.competitor, "competitor workload"),
                        wl::WorkloadParams{}});
    const std::vector<std::shared_ptr<const wl::Workload>> built =
        pointWorkloads(keys);
    const wl::Workload &w = *built[0];

    Experiment exp(req.config, req.backend);

    // Placement policy (Figure 7, §5.4): pin the target to processors
    // with enough AMSs; optionally keep competitors off those CPUs.
    std::vector<int> targetAffinity;
    std::vector<int> otherCpus;
    if (req.pinMinAms > 0) {
        for (unsigned i = 0; i < exp.system().numProcessors(); ++i) {
            int cpu = exp.system().processor(i).cpuId();
            if (exp.system().processor(i).numAms() >= req.pinMinAms)
                targetAffinity.push_back(cpu);
            else
                otherCpus.push_back(cpu);
        }
    }
    LoadedProcess proc = exp.load(w.app, targetAffinity);

    for (std::size_t b = 0; b < req.background.size(); ++b)
        exp.load(built[1 + b]->app);

    for (unsigned c = 0; c < req.competitors; ++c) {
        std::vector<int> affinity;
        if (req.idealPlacement && !otherCpus.empty())
            affinity = otherCpus;
        exp.load(built.back()->app, affinity);
    }

    // Attach the trace recorder for the whole measured run (warmup leg
    // included, so a save leg's trace matches an uninterrupted run's).
    EventQueue &eq = exp.system().eventQueue();
    obs::TraceRecorder rec(eq, req.trace, req.traceSkip);
    obs::ScopedTrace attach(req.trace.enabled ? &rec : nullptr);

    RunRecord out;
    auto t0 = Clock::now();
    out.phases.parse = seconds(tEntry, t0);
    auto tRun0 = t0;
    RunOutcome outcome;
    if (req.snapshotOut.empty()) {
        outcome = exp.runToCompletion(proc.process, req.maxTicks);
    } else {
        // Warmup leg: run to the requested tick, archive the machine
        // exactly there, then continue to completion — the record (and
        // every simulated number in it) stays identical to an
        // uninterrupted run; only the image file is extra.
        exp.system().start();
        exp.system().run(std::min(req.warmupTicks, req.maxTicks));
        if (!exp.system().kernel().processAlive(proc.process)) {
            return snapshotFailure(
                req, "warmup_ticks=" +
                         std::to_string(req.warmupTicks) +
                         " outlives the target; nothing to snapshot");
        }
        std::string image, err;
        if (!snap::saveExperiment(exp, proc.process,
                                  snap::configHash(req), req.label,
                                  &image, &err) ||
            !snap::writeFileBytes(req.snapshotOut, image, &err)) {
            return snapshotFailure(req, err);
        }
        obs::trace(obs::TraceKind::SnapshotSave, 0, 0, image.size(),
                   eq.numProcessed());
        auto tWarm = Clock::now();
        out.phases.warmup = seconds(t0, tWarm);
        tRun0 = tWarm;
        outcome = exp.resumeToCompletion(proc.process, req.maxTicks);
    }
    auto t1 = Clock::now();
    out.phases.run = seconds(tRun0, t1);
    harvest(&out, exp, proc.process, w, req, outcome, seconds(t0, t1));
    if (req.trace.enabled)
        out.trace = rec.take();
    return out;
}

} // namespace misp::harness
