#include "run_record.hh"

#include <algorithm>
#include <chrono>
#include <functional>
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
    out->configReads = exp.system().configReads().mask();
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

const wl::WorkloadInfo *
findOrDie(const std::string &name, const char *role)
{
    const wl::WorkloadInfo *info = wl::findWorkload(name);
    if (!info)
        fatal("runOne: unknown %s '%s'", role, name.c_str());
    return info;
}

/** The workloads @p req loads, in load order: the target, each
 *  background workload, then the competitor when there are any (a
 *  snapshot restore loads only the target, for its validator). Equal
 *  keys may repeat. */
std::vector<WorkloadKey>
workloadKeys(const RunRequest &req)
{
    std::vector<WorkloadKey> keys = {
        {findOrDie(req.target.name, "workload"), req.target.params}};
    if (!req.snapshotIn.empty())
        return keys;
    for (const RunWorkload &bg : req.background)
        keys.push_back({findOrDie(bg.name, "background workload"),
                        bg.params});
    if (req.competitors > 0)
        keys.push_back({findOrDie(req.competitor, "competitor workload"),
                        wl::WorkloadParams{}});
    return keys;
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
 *  still built host-side (or taken from the sweep's store) for its
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

bool
reusableRun(const RunRequest &req)
{
    return !req.fullStats && !req.trace.enabled && req.snapshotIn.empty() &&
           req.snapshotOut.empty();
}

bool
sameRunInputs(const RunRequest &a, const RunRequest &b)
{
    auto same = [](const RunWorkload &x, const RunWorkload &y) {
        return x.name == y.name && x.params == y.params;
    };
    return same(a.target, b.target) &&
           std::equal(a.background.begin(), a.background.end(),
                      b.background.begin(), b.background.end(), same) &&
           a.backend == b.backend && a.competitors == b.competitors &&
           a.competitor == b.competitor && a.pinMinAms == b.pinMinAms &&
           a.idealPlacement == b.idealPlacement &&
           a.maxTicks == b.maxTicks &&
           a.config.misp.engine == b.config.misp.engine;
}

namespace {

/** One FNV-1a step over the 8 bytes of @p v. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t
mixValue(std::uint64_t h, const std::vector<unsigned> &v)
{
    h = mix(h, v.size());
    for (unsigned x : v)
        h = mix(h, x);
    return h;
}

template <class T>
std::uint64_t
mixValue(std::uint64_t h, const T &v)
{
    return mix(h, static_cast<std::uint64_t>(v));
}

} // namespace

std::uint64_t
hashRunInputs(const RunRequest &req)
{
    std::uint64_t h =
        mix(kFnvBasis, std::hash<std::string>()(req.target.name));
    h = mix(h, req.target.params.workers);
    h = mix(h, req.target.params.scale);
    h = mix(h, req.target.params.seed);
    h = mix(h, req.background.size());
    h = mix(h, static_cast<std::uint64_t>(req.backend));
    h = mix(h, req.competitors);
    h = mix(h, req.pinMinAms);
    h = mix(h, req.maxTicks);
    return mix(h, static_cast<std::uint64_t>(req.config.misp.engine));
}

bool
sameConfigFields(const arch::SystemConfig &a, const arch::SystemConfig &b,
                 ConfigMask mask)
{
    bool same = true;
    for (std::size_t f = 0; f < kNumConfigFields && same; ++f) {
        if (mask & configBit(ConfigField(f)))
            visitConfigField(ConfigField(f), [&](auto field) {
                same = field(a) == field(b);
            });
    }
    return same;
}

std::uint64_t
hashConfigFields(const arch::SystemConfig &config, ConfigMask mask)
{
    std::uint64_t h = mix(kFnvBasis, mask);
    for (std::size_t f = 0; f < kNumConfigFields; ++f) {
        if (mask & configBit(ConfigField(f)))
            visitConfigField(ConfigField(f), [&](auto field) {
                h = mixValue(h, field(config));
            });
    }
    return h;
}

bool
WorkloadKey::operator<(const WorkloadKey &o) const
{
    if (info != o.info)
        return std::less<>()(info, o.info);
    return params < o.params;
}

void
WorkloadStore::expect(const RunRequest &req)
{
    const std::vector<WorkloadKey> keys = workloadKeys(req);
    for (auto k = keys.begin(); k != keys.end(); ++k) {
        if (std::find(keys.begin(), k, *k) == k)
            ++entries_[*k].pending;
    }
}

const wl::Workload &
WorkloadStore::Lease::take(const WorkloadKey &key)
{
    auto it = store_.entries_.find(key);
    MISP_ASSERT(it != store_.entries_.end()); // expect() never saw it
    Entry &e = it->second;
    if (std::find(held_.begin(), held_.end(), &e) != held_.end())
        return *e.built;
    std::lock_guard<std::mutex> lock(e.mutex);
    MISP_ASSERT(e.pending > 0); // taken after its last point
    if (!e.built) {
        e.built = std::make_unique<const wl::Workload>(
            key.info->build(key.params));
        ++store_.builds_;
        ++store_.alive_;
    }
    held_.push_back(&e);
    return *e.built;
}

void
WorkloadStore::release(Entry &e)
{
    std::lock_guard<std::mutex> lock(e.mutex);
    MISP_ASSERT(e.pending > 0); // released more often than counted
    if (--e.pending == 0 && e.built) {
        e.built.reset();
        --alive_;
    }
}

void
WorkloadStore::skip(const RunRequest &req)
{
    const std::vector<WorkloadKey> keys = workloadKeys(req);
    for (auto k = keys.begin(); k != keys.end(); ++k) {
        auto it = entries_.find(*k);
        MISP_ASSERT(it != entries_.end()); // expect() never saw it
        if (std::find(keys.begin(), k, *k) == k)
            release(it->second);
    }
}

WorkloadStore::Lease::~Lease()
{
    for (Entry *e : held_)
        store_.release(*e);
}

RunRecord
runOne(const RunRequest &req)
{
    auto tEntry = Clock::now();

    // A lone run counts itself in a store of its own. The lease is
    // declared before the machine, so it releases the workloads after
    // harvest and teardown, or on a throw.
    const std::vector<WorkloadKey> keys = workloadKeys(req);
    WorkloadStore own;
    WorkloadStore *store = req.workloads;
    if (!store) {
        own.expect(req);
        store = &own;
    }
    WorkloadStore::Lease lease(*store);
    std::vector<const wl::Workload *> built;
    for (const WorkloadKey &key : keys)
        built.push_back(&lease.take(key));
    const wl::Workload &w = *built[0];
    if (!req.snapshotIn.empty())
        return runFromSnapshot(req, w, tEntry);

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
