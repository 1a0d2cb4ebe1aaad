#include "snapshot.hh"

#include <algorithm>
#include <fstream>
#include <unordered_set>
#include <sstream>

#include "harness/experiment.hh"
#include "misp/misp_system.hh"
#include "misp/signal_fabric.hh"
#include "os/kernel.hh"
#include "shredlib/os_runtime.hh"
#include "shredlib/shred_runtime.hh"
#include "snapshot/state_io.hh"
#include "snapshot/tags.hh"

namespace misp::snap {

namespace {

// Section ids (stable; new sections append).
constexpr std::uint32_t kSecConfig = 1;
constexpr std::uint32_t kSecMeta = 2;
constexpr std::uint32_t kSecPmem = 3;
constexpr std::uint32_t kSecKernel = 4;
constexpr std::uint32_t kSecProcs = 5;
constexpr std::uint32_t kSecRt = 6;
constexpr std::uint32_t kSecEvents = 7;
constexpr std::uint32_t kSecStats = 8;

void
putSystemConfig(Serializer &s, const arch::SystemConfig &cfg,
                rt::Backend backend)
{
    s.u64(cfg.amsPerProcessor.size());
    for (unsigned n : cfg.amsPerProcessor)
        s.u32(n);
    s.u32(cfg.misp.numAms);
    s.u64(cfg.misp.signalCycles);
    s.u64(cfg.misp.contextXferCycles);
    s.u8(static_cast<std::uint8_t>(cfg.misp.serialization));
    s.u32(cfg.misp.sliceLimit);
    // Deliberately NOT serialized: cfg.misp.engine. The host execution
    // engine is not architectural state — images are engine-neutral, so
    // a snapshot warmed under one engine restores under any other (the
    // restoring run's choice is re-applied after restore) and the
    // config hash cannot key compatibility on it.
    s.u64(cfg.kernel.syscallBase);
    s.u64(cfg.kernel.writePerByte);
    s.u64(cfg.kernel.pageFaultService);
    s.u64(cfg.kernel.timerService);
    s.u64(cfg.kernel.deviceIrqService);
    s.u64(cfg.kernel.ctxSwitch);
    s.u64(cfg.kernel.timerPeriod);
    s.u32(cfg.kernel.quantumTicks);
    s.u64(cfg.kernel.deviceIrqMeanPeriod);
    s.u64(cfg.kernel.seed);
    s.u64(cfg.physFrames);
    s.u8(backend == rt::Backend::Shred ? 0 : 1);
}

arch::SystemConfig
getSystemConfig(Deserializer &d, rt::Backend *backend)
{
    arch::SystemConfig cfg;
    cfg.amsPerProcessor.resize(d.u64());
    for (unsigned &n : cfg.amsPerProcessor)
        n = d.u32();
    cfg.misp.numAms = d.u32();
    cfg.misp.signalCycles = d.u64();
    cfg.misp.contextXferCycles = d.u64();
    cfg.misp.serialization =
        static_cast<arch::SerializationPolicy>(d.u8());
    cfg.misp.sliceLimit = d.u32();
    cfg.kernel.syscallBase = d.u64();
    cfg.kernel.writePerByte = d.u64();
    cfg.kernel.pageFaultService = d.u64();
    cfg.kernel.timerService = d.u64();
    cfg.kernel.deviceIrqService = d.u64();
    cfg.kernel.ctxSwitch = d.u64();
    cfg.kernel.timerPeriod = d.u64();
    cfg.kernel.quantumTicks = d.u32();
    cfg.kernel.deviceIrqMeanPeriod = d.u64();
    cfg.kernel.seed = d.u64();
    cfg.physFrames = d.u64();
    *backend = d.u8() == 0 ? rt::Backend::Shred : rt::Backend::OsThread;
    return cfg;
}

/** Every member event a component will archive (and re-schedule)
 *  itself: run-slice events, periodic timer / device-IRQ events. */
std::unordered_set<const Event *>
claimedEvents(arch::MispSystem &sys)
{
    std::unordered_set<const Event *> claimed;
    for (unsigned p = 0; p < sys.numProcessors(); ++p) {
        arch::MispProcessor &proc = sys.processor(p);
        claimed.insert(proc.snapTimerEvent());
        claimed.insert(proc.snapDeviceEvent());
        for (SequencerId sid = 0;; ++sid) {
            cpu::Sequencer *seq = proc.sequencer(sid);
            if (!seq)
                break;
            claimed.insert(seq->snapRunEvent());
        }
    }
    return claimed;
}

// ---------------------------------------------------------------------
// Statistics tree
// ---------------------------------------------------------------------

void
saveStatGroup(Serializer &s, const stats::StatGroup &group)
{
    const auto &stats = group.statsHere();
    s.u64(stats.size());
    for (const stats::StatBase *stat : stats) {
        s.str(stat->name());
        std::vector<double> values = stat->snapValues();
        s.u64(values.size());
        for (double v : values)
            s.f64(v);
    }
    const auto &children = group.children();
    s.u64(children.size());
    for (const stats::StatGroup *child : children) {
        s.str(child->groupName());
        saveStatGroup(s, *child);
    }
}

void
restoreStatGroup(Deserializer &d, stats::StatGroup &group)
{
    const auto &stats = group.statsHere();
    if (d.u64() != stats.size())
        throw SnapError("stats: tree shape mismatch at group '" +
                        group.path() + "'");
    for (stats::StatBase *stat : stats) {
        if (d.str() != stat->name())
            throw SnapError("stats: name mismatch at group '" +
                            group.path() + "'");
        std::vector<double> values(d.u64());
        for (double &v : values)
            v = d.f64();
        stat->snapRestoreValues(values);
    }
    const auto &children = group.children();
    if (d.u64() != children.size())
        throw SnapError("stats: child count mismatch at group '" +
                        group.path() + "'");
    for (stats::StatGroup *child : children) {
        if (d.str() != child->groupName())
            throw SnapError("stats: child name mismatch at group '" +
                            group.path() + "'");
        restoreStatGroup(d, *child);
    }
}

// ---------------------------------------------------------------------
// Pending tagged events
// ---------------------------------------------------------------------

struct TaggedEvent {
    EventTag tag;
    Tick when = 0;
    std::uint64_t seq = 0;
    std::int64_t priority = 0;
};

void
saveTaggedEvents(Serializer &s, arch::MispSystem &sys)
{
    std::unordered_set<const Event *> claimed = claimedEvents(sys);
    std::vector<TaggedEvent> pending;
    sys.eventQueue().forEachScheduled(
        [&](const EventQueue::ScheduledInfo &info) {
            if (claimed.count(info.ev))
                return;
            if (!info.tag)
                throw SnapError("unsnapshottable event '" +
                                info.ev->name() +
                                "' pending (machine not quiescent)");
            pending.push_back(TaggedEvent{*info.tag, info.when, info.seq,
                                          info.priority});
        });
    // Emission order must be deterministic; insertion sequence is the
    // natural (and unique) key.
    std::sort(pending.begin(), pending.end(),
              [](const TaggedEvent &a, const TaggedEvent &b) {
                  return a.seq < b.seq;
              });
    s.u64(pending.size());
    for (const TaggedEvent &ev : pending) {
        s.u32(ev.tag.kind);
        for (std::uint64_t a : ev.tag.arg)
            s.u64(a);
        s.u64(ev.when);
        s.u64(ev.seq);
        s.i64(ev.priority);
    }
}

void
restoreTaggedEvents(Deserializer &d, arch::MispSystem &sys)
{
    std::uint64_t count = d.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
        TaggedEvent ev;
        ev.tag.kind = d.u32();
        for (std::uint64_t &a : ev.tag.arg)
            a = d.u64();
        ev.when = d.u64();
        ev.seq = d.u64();
        ev.priority = d.i64();
        checkEventSchedule(sys.eventQueue(), ev.when, ev.seq);
        // Each tag kind is only ever scheduled at one priority; any
        // other would silently reorder same-tick events.
        auto expectPriority = [&](int live) {
            if (ev.priority != live)
                throw SnapError("image: event tag kind " +
                                std::to_string(ev.tag.kind) +
                                " has priority " +
                                std::to_string(ev.priority) + ", not " +
                                std::to_string(live));
        };

        switch (ev.tag.kind) {
          case tag::kFabricSignal:
          case tag::kFabricProxyReq: {
            expectPriority(arch::SignalFabric::kDeliveryPrio);
            int cpuId = static_cast<int>(ev.tag.arg[0]);
            SequencerId sid = static_cast<SequencerId>(ev.tag.arg[1]);
            arch::MispProcessor *proc = sys.processorForCpu(cpuId);
            cpu::Sequencer *target = proc ? proc->sequencer(sid) : nullptr;
            if (!target)
                throw SnapError("image: signal delivery names an absent "
                                "sequencer");
            cpu::SignalPayload payload;
            payload.eip = ev.tag.arg[2];
            payload.esp = ev.tag.arg[3];
            payload.arg = ev.tag.arg[4];
            bool isProxy = ev.tag.kind == tag::kFabricProxyReq;
            sys.eventQueue().restoreLambda(
                ev.when, ev.seq,
                isProxy ? "fabric.proxyReq" : "fabric.signal",
                [target, payload, isProxy] {
                    if (isProxy)
                        target->deliverProxyRequest(payload);
                    else
                        target->deliverSignal(payload);
                },
                arch::SignalFabric::kDeliveryPrio, ev.tag);
            break;
          }
          case tag::kKernelSleepWake:
            expectPriority(os::Kernel::kSleepWakePrio);
            sys.kernel().snapRestoreSleepWake(
                static_cast<Tid>(ev.tag.arg[0]), ev.when, ev.seq);
            break;
          default:
            throw SnapError("image: unknown event tag kind " +
                            std::to_string(ev.tag.kind));
        }
    }
}

} // namespace

// ---------------------------------------------------------------------
// Quiescence
// ---------------------------------------------------------------------

bool
snapshotReady(harness::Experiment &exp, std::string *why)
{
    arch::MispSystem &sys = exp.system();
    for (unsigned p = 0; p < sys.numProcessors(); ++p) {
        if (sys.processor(p).inRing0()) {
            if (why)
                *why = sys.processor(p).name() + " is inside a Ring-0 "
                       "episode";
            return false;
        }
    }
    std::unordered_set<const Event *> claimed = claimedEvents(sys);
    bool ready = true;
    sys.eventQueue().forEachScheduled(
        [&](const EventQueue::ScheduledInfo &info) {
            if (claimed.count(info.ev) || info.tag)
                return;
            if (ready && why)
                *why = "pending event '" + info.ev->name() +
                       "' carries a closure";
            ready = false;
        });
    return ready;
}

bool
advanceToSnapshotPoint(harness::Experiment &exp, std::uint64_t maxEvents)
{
    EventQueue &eq = exp.system().eventQueue();
    for (std::uint64_t i = 0; i < maxEvents; ++i) {
        if (snapshotReady(exp))
            return true;
        if (!eq.step())
            return false;
    }
    return snapshotReady(exp);
}

// ---------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------

bool
saveExperiment(harness::Experiment &exp, os::Process *target,
               std::uint64_t cfgHash, const std::string &label,
               std::string *imageOut, std::string *err)
{
    std::string why;
    if (!snapshotReady(exp, &why)) {
        if (err)
            *err = "machine is not at a snapshot point: " + why;
        return false;
    }
    try {
        arch::MispSystem &sys = exp.system();
        Serializer s;

        s.beginSection(kSecConfig);
        putSystemConfig(s, sys.config(), exp.backend());
        s.endSection();

        s.beginSection(kSecMeta);
        s.u64(sys.eventQueue().curTick());
        s.u64(sys.eventQueue().nextSeq());
        s.u64(sys.eventQueue().numProcessed());
        s.u64(target ? target->pid() : 0);
        s.u64(cfgHash);
        s.str(label);
        s.endSection();

        s.beginSection(kSecPmem);
        sys.physMem().snapSave(s);
        s.endSection();

        s.beginSection(kSecKernel);
        sys.kernel().snapSave(s);
        s.endSection();

        s.beginSection(kSecProcs);
        s.u64(sys.numProcessors());
        for (unsigned p = 0; p < sys.numProcessors(); ++p)
            sys.processor(p).snapSave(s);
        s.endSection();

        s.beginSection(kSecRt);
        if (exp.backend() == rt::Backend::Shred)
            exp.shredRuntime()->snapSave(s);
        else
            exp.osRuntime()->snapSave(s);
        s.endSection();

        s.beginSection(kSecEvents);
        saveTaggedEvents(s, sys);
        s.endSection();

        s.beginSection(kSecStats);
        saveStatGroup(s, sys.rootStats());
        s.endSection();

        *imageOut = s.done();
        return true;
    } catch (const std::exception &e) {
        // SnapError, plus hostile-size allocation failures
        // (length_error / bad_alloc): all fail closed.
        if (err)
            *err = e.what();
        return false;
    }
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

namespace {

SnapshotMeta
readMeta(Deserializer &d, std::uint64_t *nextSeq,
         std::uint64_t *numProcessed)
{
    d.openSection(kSecMeta);
    SnapshotMeta meta;
    meta.savedTick = d.u64();
    std::uint64_t seq = d.u64();
    std::uint64_t processed = d.u64();
    meta.targetPid = d.u64();
    meta.cfgHash = d.u64();
    meta.label = d.str();
    if (nextSeq)
        *nextSeq = seq;
    if (numProcessed)
        *numProcessed = processed;
    return meta;
}

} // namespace

bool
readSnapshotMeta(const std::string &image, SnapshotMeta *out,
                 std::string *err)
{
    try {
        Deserializer d(image);
        *out = readMeta(d, nullptr, nullptr);
        return true;
    } catch (const std::exception &e) {
        // SnapError, plus hostile-size allocation failures
        // (length_error / bad_alloc): all fail closed.
        if (err)
            *err = e.what();
        return false;
    }
}

bool
restoreExperiment(const std::string &image, RestoredExperiment *out,
                  std::string *err)
{
    try {
        Deserializer d(image);

        d.openSection(kSecConfig);
        rt::Backend backend = rt::Backend::Shred;
        arch::SystemConfig cfg = getSystemConfig(d, &backend);

        auto exp = std::make_unique<harness::Experiment>(cfg, backend);
        arch::MispSystem &sys = exp->system();

        std::uint64_t nextSeq = 0;
        std::uint64_t numProcessed = 0;
        SnapshotMeta meta = readMeta(d, &nextSeq, &numProcessed);
        // Clock first: member-event restores below validate their
        // (when, seq) against it.
        sys.eventQueue().setClock(meta.savedTick, nextSeq, numProcessed);

        d.openSection(kSecPmem);
        sys.physMem().snapRestore(d);

        d.openSection(kSecKernel);
        sys.kernel().snapRestore(d);

        d.openSection(kSecProcs);
        if (d.u64() != sys.numProcessors())
            throw SnapError("image: processor count mismatch");
        for (unsigned p = 0; p < sys.numProcessors(); ++p)
            sys.processor(p).snapRestore(d);

        // Re-point every MMU at the rebuilt address space of the thread
        // its processor is running (nullptr for idle processors: their
        // stale translation state is never consulted, and the next
        // loadThread() performs the architectural CR3 write anyway).
        for (unsigned p = 0; p < sys.numProcessors(); ++p) {
            arch::MispProcessor &proc = sys.processor(p);
            os::OsThread *cur = sys.kernel().current(proc.cpuId());
            mem::AddressSpace *as =
                cur ? &cur->process()->addressSpace() : nullptr;
            for (SequencerId sid = 0;; ++sid) {
                cpu::Sequencer *seq = proc.sequencer(sid);
                if (!seq)
                    break;
                seq->mmu().snapAttach(as);
            }
        }

        d.openSection(kSecRt);
        if (backend == rt::Backend::Shred)
            exp->shredRuntime()->snapRestore(d, sys);
        else
            exp->osRuntime()->snapRestore(d, sys);

        d.openSection(kSecEvents);
        restoreTaggedEvents(d, sys);

        d.openSection(kSecStats);
        restoreStatGroup(d, sys.rootStats());

        out->target = meta.targetPid
                          ? sys.kernel().processByPid(
                                static_cast<Pid>(meta.targetPid))
                          : nullptr;
        out->meta = meta;
        out->exp = std::move(exp);
        return true;
    } catch (const std::exception &e) {
        // SnapError, plus hostile-size allocation failures
        // (length_error / bad_alloc): all fail closed.
        out->exp.reset();
        if (err)
            *err = e.what();
        return false;
    }
}

// ---------------------------------------------------------------------
// Request hashing and file helpers
// ---------------------------------------------------------------------

namespace {

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

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
    putSystemConfig(s, req.config, req.backend);
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

std::string
encodeRunRecord(const harness::RunRecord &rec)
{
    Serializer s;
    s.beginSection(0);
    s.u8(static_cast<std::uint8_t>(rec.status));
    s.u64(rec.ticks);
    s.b(rec.valid);
    s.u64(rec.events.size());
    for (double v : rec.events)
        s.f64(v);
    s.u64(rec.instsRetired);
    s.f64(rec.hostSeconds);
    s.f64(rec.hostMips);
    s.str(rec.statsJson);
    s.str(rec.note);
    s.u32(rec.attempts);
    // Observability extensions (appended; decode in the same order).
    s.f64(rec.phases.parse);
    s.f64(rec.phases.warmup);
    s.f64(rec.phases.run);
    s.f64(rec.phases.serialize);
    s.u64(rec.trace.base);
    s.u64(rec.trace.dropped);
    s.u32(rec.trace.catMask);
    s.u64(rec.trace.maxEvents);
    s.u64(rec.trace.events.size());
    for (const obs::TraceEvent &ev : rec.trace.events) {
        s.u64(ev.tick);
        s.u64(ev.seq);
        s.u32(ev.kind);
        s.u32(ev.sid);
        s.u32(ev.aux);
        s.u64(ev.arg0);
        s.u64(ev.arg1);
    }
    s.endSection();
    return s.done();
}

bool
decodeRunRecord(const std::string &data, harness::RunRecord *out,
                std::string *err)
{
    try {
        Deserializer d(data);
        d.openSection(0);
        const std::uint8_t status = d.u8();
        if (status > static_cast<std::uint8_t>(
                         harness::RunStatus::WorkerTimeout))
            throw SnapError("run record: bad status byte");
        out->status = static_cast<harness::RunStatus>(status);
        out->ticks = d.u64();
        out->valid = d.b();
        if (d.u64() != out->events.size())
            throw SnapError("run record: event field count mismatch");
        for (double &v : out->events)
            v = d.f64();
        out->instsRetired = d.u64();
        out->hostSeconds = d.f64();
        out->hostMips = d.f64();
        out->statsJson = d.str();
        out->note = d.str();
        out->attempts = d.u32();
        out->phases.parse = d.f64();
        out->phases.warmup = d.f64();
        out->phases.run = d.f64();
        out->phases.serialize = d.f64();
        out->trace.base = d.u64();
        out->trace.dropped = d.u64();
        out->trace.catMask = d.u32();
        out->trace.maxEvents = d.u64();
        const std::uint64_t nTrace = d.u64();
        constexpr std::uint64_t kWireEventBytes = 8 * 4 + 4 * 3;
        if (nTrace > d.remaining() / kWireEventBytes)
            throw SnapError("run record: trace event count exceeds "
                            "payload");
        out->trace.events.clear();
        out->trace.events.reserve(nTrace);
        for (std::uint64_t i = 0; i < nTrace; ++i) {
            obs::TraceEvent ev;
            ev.tick = d.u64();
            ev.seq = d.u64();
            const std::uint32_t kind = d.u32();
            if (kind >= static_cast<std::uint32_t>(
                            obs::TraceKind::NumKinds))
                throw SnapError("run record: bad trace event kind");
            ev.kind = static_cast<std::uint16_t>(kind);
            const std::uint32_t sid = d.u32();
            if (sid > 0xffffu)
                throw SnapError("run record: bad trace event sid");
            ev.sid = static_cast<std::uint16_t>(sid);
            ev.aux = d.u32();
            ev.arg0 = d.u64();
            ev.arg1 = d.u64();
            out->trace.events.push_back(ev);
        }
        // A well-formed record consumes its section exactly; trailing
        // bytes mean the payload was spliced or corrupted in a way the
        // CRC happened to survive — fail closed rather than accept it.
        if (d.remaining() != 0)
            throw SnapError("run record: trailing bytes after record");
        return true;
    } catch (const std::exception &e) {
        // SnapError, plus hostile-size allocation failures
        // (length_error / bad_alloc): all fail closed.
        if (err)
            *err = e.what();
        return false;
    }
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
