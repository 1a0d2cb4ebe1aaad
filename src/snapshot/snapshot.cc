#include "snapshot.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "harness/experiment.hh"
#include "misp/misp_system.hh"
#include "os/kernel.hh"
#include "shredlib/os_runtime.hh"
#include "shredlib/shred_runtime.hh"
#include "snapshot/state_io.hh"

namespace misp::snap {

namespace {

// Section ids (stable; new sections append).
constexpr std::uint32_t kSecConfig = 1;
constexpr std::uint32_t kSecMeta = 2;
constexpr std::uint32_t kSecPmem = 3;
constexpr std::uint32_t kSecKernel = 4;
constexpr std::uint32_t kSecProcs = 5;
constexpr std::uint32_t kSecRt = 6;
// 7 was the tagged-event section of version-2 images.
constexpr std::uint32_t kSecStats = 8;

/** Run @p body; any exception it throws (a SnapError, or an allocation
 *  failure) becomes false + @p err, so the entry points fail closed. */
template <class Body>
bool
failClosed(std::string *err, Body &&body)
{
    try {
        body();
        return true;
    } catch (const std::exception &e) {
        if (err)
            *err = e.what();
        return false;
    }
}

template <class Ar>
void
archive(Ar &a, arch::SystemConfig &cfg, rt::Backend &backend)
{
    snap::sequence(a, cfg.amsPerProcessor, 4, "amsPerProcessor",
                   [&](unsigned &n) { a.u32(n); });
    a.u32(cfg.misp.numAms);
    a.u64(cfg.misp.signalCycles);
    a.u64(cfg.misp.contextXferCycles);
    a.enumByte(cfg.misp.serialization,
               static_cast<std::size_t>(
                   arch::SerializationPolicy::SpeculativeMonitor) + 1,
               "serialization policy");
    a.u32(cfg.misp.sliceLimit);
    // Deliberately NOT serialized: cfg.misp.engine. The host execution
    // engine is not architectural state — images are engine-neutral, so
    // a snapshot warmed under one engine restores under any other (the
    // restoring run's choice is re-applied after restore) and the
    // config hash cannot key compatibility on it.
    a.u64(cfg.kernel.syscallBase);
    a.u64(cfg.kernel.writePerByte);
    a.u64(cfg.kernel.pageFaultService);
    a.u64(cfg.kernel.timerService);
    a.u64(cfg.kernel.deviceIrqService);
    a.u64(cfg.kernel.ctxSwitch);
    a.u64(cfg.kernel.timerPeriod);
    a.u32(cfg.kernel.quantumTicks);
    a.u64(cfg.kernel.deviceIrqMeanPeriod);
    a.u64(cfg.kernel.rngSeed);
    a.u64(cfg.physFrames);
    a.enumByte(backend, static_cast<std::size_t>(rt::Backend::OsThread) + 1,
               "runtime backend");
}

/** The clock and the image's bookkeeping. */
template <class Ar>
void
archive(Ar &a, SnapshotMeta &meta, std::uint64_t &nextSeq,
        std::uint64_t &numProcessed)
{
    a.u64(meta.savedTick);
    a.u64(nextSeq);
    a.u64(numProcessed);
    a.u64(meta.targetPid);
    a.u64(meta.cfgHash);
    a.str(meta.label);
}

/** The statistics tree, by dotted path: each group's stats (name and
 *  values, as many as the live stat holds) and then its children. */
template <class Ar>
void
archive(Ar &a, stats::StatGroup &group)
{
    const std::string where = "stat group '" + group.path() + "'";
    auto field = [&](const char *what) { return where + " " + what; };
    const auto &stats = group.statsHere();
    a.match(stats.size(), field("stat count").c_str());
    for (stats::StatBase *stat : stats) {
        a.match(stat->name(), field("stat name").c_str());
        std::vector<double> values = stat->snapValues();
        a.match(values.size(), field("value count").c_str());
        for (double &v : values)
            a.f64(v);
        if constexpr (Ar::kLoading)
            stat->setSnapValues(values);
    }
    const auto &children = group.children();
    a.match(children.size(), field("child count").c_str());
    for (stats::StatGroup *child : children) {
        a.match(child->groupName(), field("child name").c_str());
        archive(a, *child);
    }
}

/** Everything after CONFIG: the clock, memory, kernel, processors,
 *  runtime and statistics of the machine @p exp. */
template <class Ar>
void
archiveMachine(Ar &a, harness::Experiment &exp, SnapshotMeta &meta)
{
    arch::MispSystem &sys = exp.system();
    EventQueue &eq = sys.eventQueue();
    a.section(kSecMeta, [&] {
        std::uint64_t nextSeq = eq.nextSeq();
        std::uint64_t numProcessed = eq.numProcessed();
        archive(a, meta, nextSeq, numProcessed);
        // Clock first: event restores below validate their (when, seq)
        // against it.
        if constexpr (Ar::kLoading)
            eq.setClock(meta.savedTick, nextSeq, numProcessed);
    });
    a.section(kSecPmem, [&] { sys.physMem().archive(a); });
    a.section(kSecKernel, [&] { sys.kernel().archive(a); });
    a.section(kSecProcs, [&] {
        a.match(sys.numProcessors(), "processor count");
        for (unsigned p = 0; p < sys.numProcessors(); ++p)
            sys.processor(p).archive(a);
    });
    if constexpr (Ar::kLoading) {
        // Re-point every MMU at the rebuilt address space of the thread
        // its processor is running (nullptr for idle processors: their
        // stale translation state is never consulted, and the next
        // loadThread() performs the architectural CR3 write anyway).
        for (unsigned p = 0; p < sys.numProcessors(); ++p) {
            arch::MispProcessor &proc = sys.processor(p);
            os::OsThread *cur = sys.kernel().current(proc.cpuId());
            mem::AddressSpace *as =
                cur ? &cur->process()->addressSpace() : nullptr;
            for (SequencerId sid = 0; proc.sequencer(sid); ++sid)
                proc.sequencer(sid)->mmu().snapAttach(as);
        }
    }
    a.section(kSecRt, [&] {
        if (exp.backend() == rt::Backend::Shred)
            exp.shredRuntime()->archive(a, sys);
        else
            exp.osRuntime()->archive(a, sys);
    });
    a.section(kSecStats, [&] { archive(a, sys.rootStats()); });
}

} // namespace

// ---------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------

bool
saveExperiment(harness::Experiment &exp, os::Process *target,
               std::uint64_t cfgHash, const std::string &label,
               std::string *imageOut, std::string *err)
{
    return failClosed(err, [&] {
        arch::MispSystem &sys = exp.system();
        Serializer s;
        // The image carries every config field, so the machine has read
        // them all.
        sys.configReads().markAll();
        arch::SystemConfig cfg = sys.config();
        rt::Backend backend = exp.backend();
        s.section(kSecConfig, [&] { archive(s, cfg, backend); });
        SnapshotMeta meta{sys.eventQueue().curTick(),
                          target ? target->pid() : 0, cfgHash, label};
        archiveMachine(s, exp, meta);

        // Every pending event must have been archived by the component
        // that owns it; anything else would vanish from the image.
        sys.eventQueue().forEachScheduled(
            [&s](const Event &ev) {
                if (!s.archived(&ev))
                    throw SnapError("pending event '" + ev.name() +
                                    "' is archived by no component");
            });

        *imageOut = s.done();
    });
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

bool
readSnapshotMeta(const std::string &image, SnapshotMeta *out,
                 std::string *err)
{
    return failClosed(err, [&] {
        Deserializer d(image);
        std::uint64_t nextSeq = 0;
        std::uint64_t numProcessed = 0;
        d.section(kSecMeta,
                  [&] { archive(d, *out, nextSeq, numProcessed); });
    });
}

bool
restoreExperiment(const std::string &image, RestoredExperiment *out,
                  std::string *err)
{
    out->exp.reset();
    return failClosed(err, [&] {
        Deserializer d(image);
        arch::SystemConfig cfg;
        rt::Backend backend = rt::Backend::Shred;
        d.section(kSecConfig, [&] { archive(d, cfg, backend); });
        // A CRC-valid CONFIG may still describe a machine that cannot
        // be built or run; refuse it before building anything.
        std::string bad;
        if (!cfg.validate(&bad))
            throw SnapError("CONFIG " + bad);
        auto exp = std::make_unique<harness::Experiment>(cfg, backend);
        // The run before the save read an unknown set of fields.
        exp->system().configReads().markAll();
        SnapshotMeta meta;
        archiveMachine(d, *exp, meta);

        out->target = meta.targetPid
                          ? exp->system().kernel().processByPid(
                                static_cast<Pid>(meta.targetPid))
                          : nullptr;
        out->meta = meta;
        out->exp = std::move(exp);
    });
}

// ---------------------------------------------------------------------
// Request hashing and file helpers
// ---------------------------------------------------------------------

namespace {

void
putWorkload(Serializer &s, const harness::RunWorkload &w)
{
    s.str(w.name);
    s.u32(w.params.workers);
    s.u64(w.params.scale);
    s.b(w.params.prefault);
    s.u64(w.params.seed);
    s.u64(w.params.extra.size());
    for (const auto &[key, value] : w.params.extra) {
        s.str(key);
        s.str(value);
    }
}

} // namespace

std::uint64_t
configHash(const harness::RunRequest &req)
{
    Serializer s;
    s.beginSection(0);
    arch::SystemConfig cfg = req.config;
    rt::Backend backend = req.backend;
    archive(s, cfg, backend);
    putWorkload(s, req.target);
    s.u64(req.background.size());
    for (const harness::RunWorkload &bg : req.background)
        putWorkload(s, bg);
    s.u32(req.competitors);
    s.str(req.competitor);
    s.u32(req.pinMinAms);
    s.b(req.idealPlacement);
    s.endSection();
    return fnv1a(s.done());
}

namespace {

template <class Ar>
void
archive(Ar &a, harness::RunRecord &rec)
{
    constexpr std::uint64_t kWireEventBytes = 8 * 4 + 4 * 3;
    a.enumByte(rec.status,
               static_cast<std::size_t>(harness::RunStatus::WorkerTimeout) +
                   1,
               "run record status");
    a.u64(rec.ticks);
    a.b(rec.valid);
    a.match(rec.events.size(), "run record event field count");
    for (double &v : rec.events)
        a.f64(v);
    a.u64(rec.instsRetired);
    a.f64(rec.hostSeconds);
    a.f64(rec.hostMips);
    a.str(rec.statsJson);
    a.str(rec.note);
    a.u32(rec.attempts);
    // Observability extensions (appended).
    a.f64(rec.phases.parse);
    a.f64(rec.phases.warmup);
    a.f64(rec.phases.run);
    a.f64(rec.phases.serialize);
    a.u64(rec.trace.base);
    a.u64(rec.trace.dropped);
    a.u32(rec.trace.catMask);
    a.u64(rec.trace.maxEvents);
    snap::sequence(
        a, rec.trace.events, kWireEventBytes, "trace event",
        [&](obs::TraceEvent &ev) {
            a.u64(ev.tick);
            a.u64(ev.seq);
            std::uint32_t kind = ev.kind;
            a.index(kind, static_cast<std::uint32_t>(obs::TraceKind::NumKinds),
                    "trace event kind");
            if constexpr (Ar::kLoading)
                ev.kind = static_cast<std::uint16_t>(kind);
            a.u32(ev.sid);
            a.u32(ev.aux);
            a.u64(ev.arg0);
            a.u64(ev.arg1);
        });
}

} // namespace

std::string
encodeRunRecord(const harness::RunRecord &rec)
{
    Serializer s;
    // Saving only reads the record, so the cast never writes to it.
    s.section(0, [&] { archive(s, const_cast<harness::RunRecord &>(rec)); });
    return s.done();
}

bool
decodeRunRecord(const std::string &data, harness::RunRecord *out,
                std::string *err)
{
    return failClosed(err, [&] {
        Deserializer d(data);
        d.section(0, [&] { archive(d, *out); });
    });
}

bool
writeFileBytes(const std::string &path, const std::string &data,
               std::string *err)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        if (err)
            *err = "cannot write '" + path + "'";
        return false;
    }
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
    os.flush();
    if (!os) {
        if (err)
            *err = "short write to '" + path + "'";
        return false;
    }
    return true;
}

bool
readFileBytes(const std::string &path, std::string *data, std::string *err)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (err)
            *err = "cannot read '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    *data = ss.str();
    return true;
}

} // namespace misp::snap
