#include "shred_runtime.hh"

#include <algorithm>

#include "snapshot/state_io.hh"

namespace misp::rt {

using cpu::SeqState;
using cpu::Sequencer;
using cpu::SequencerContext;
using arch::MispProcessor;

ShredRuntime::ShredRuntime(stats::StatGroup *parent, RtCosts costs,
                           SchedPolicy policy)
    : costs_(costs),
      policy_(policy),
      statGroup_("shredlib", parent),
      shredsCreated_(&statGroup_, "shredsCreated", "shreds created"),
      shredSwitches_(&statGroup_, "shredSwitches",
                     "light-weight shred context switches"),
      wakeSignals_(&statGroup_, "wakeSignals",
                   "SIGNALs sent to wake parked sequencers"),
      syncFastPath_(&statGroup_, "syncFastPath",
                    "uncontended synchronization operations"),
      syncBlocked_(&statGroup_, "syncBlocked",
                   "synchronization operations that blocked"),
      parks_(&statGroup_, "parks", "sequencer parks (no ready work)")
{
    isa::Program stubs = buildStubLibrary(Backend::Shred);
    symAmsEntry_ = stubs.symbol("ams_entry");
    symShredDone_ = stubs.symbol("shred_done");
}

ShredRuntime::~ShredRuntime() = default;

mem::AddressSpace &
ShredRuntime::as(Gang &g)
{
    return g.thread->process()->addressSpace();
}

ShredRuntime::Gang &
ShredRuntime::gangOf(MispProcessor &proc, Sequencer &seq)
{
    (void)seq;
    os::OsThread *t = proc.currentThread();
    MISP_ASSERT(t != nullptr);
    auto *g = static_cast<Gang *>(t->runtimeData());
    if (!g)
        panic("shredlib: RTCALL before rt_init (thread %u)", t->tid());
    return *g;
}

ShredId
ShredRuntime::shredIdOn(Gang &g, Sequencer &seq) const
{
    auto it = g.runningOn.find(seq.sid());
    if (it == g.runningOn.end())
        return kInvalidShredId;
    return it->second;
}

ShredId
ShredRuntime::popReady(Gang &g, Sequencer &seq)
{
    if (g.ready.empty())
        return kInvalidShredId;
    bool isOms = seq.sid() == 0;
    if (policy_ == SchedPolicy::Fifo) {
        for (auto it = g.ready.begin(); it != g.ready.end(); ++it) {
            if (*it == 0 && !isOms)
                continue; // main resumes only on the OMS
            ShredId id = *it;
            g.ready.erase(it);
            return id;
        }
    } else {
        for (auto it = g.ready.rbegin(); it != g.ready.rend(); ++it) {
            if (*it == 0 && !isOms)
                continue;
            ShredId id = *it;
            g.ready.erase(std::next(it).base());
            return id;
        }
    }
    return kInvalidShredId;
}

void
ShredRuntime::dispatch(Gang &g, Sequencer &seq, ShredId id)
{
    Shred &sh = g.shreds.at(id);
    ++shredSwitches_;
    g.runningOn[seq.sid()] = id;

    SequencerContext &ctx = seq.context();
    // Trigger-response registrations are per-sequencer architectural
    // state and survive shred switches.
    auto triggers = ctx.triggers;
    if (sh.state == ShredState::Fresh) {
        ctx = SequencerContext{};
        ctx.eip = sh.fn;
        ctx.sp() = sh.stackTop - 8; // [sp] holds the shred_done return
        ctx.regs[0] = sh.arg;
        ctx.regs[2] = sh.arg;
    } else {
        MISP_ASSERT(sh.state == ShredState::Ready);
        ctx = sh.ctx;
        ctx.inHandler = false;
        ctx.savedEip = 0;
    }
    ctx.triggers = triggers;
    sh.state = ShredState::Running;
}

void
ShredRuntime::blockCurrent(Gang &g, Sequencer &seq, ShredState newState)
{
    ShredId id = shredIdOn(g, seq);
    MISP_ASSERT(id != kInvalidShredId);
    Shred &sh = g.shreds.at(id);
    sh.ctx = seq.saveContext();
    sh.state = newState;
    g.runningOn.erase(seq.sid());
    if (newState == ShredState::Ready)
        g.ready.push_back(id);
}

void
ShredRuntime::scheduleNextOn(Gang &g, Sequencer &seq)
{
    MISP_ASSERT(shredIdOn(g, seq) == kInvalidShredId);
    g.wakesInFlight.erase(seq.sid());
    ShredId id = popReady(g, seq);
    if (id != kInvalidShredId) {
        dispatch(g, seq, id);
        return;
    }
    ++parks_;
    seq.park();
}

void
ShredRuntime::makeReady(Gang &g, ShredId id)
{
    Shred &sh = g.shreds.at(id);
    MISP_ASSERT(sh.state == ShredState::Blocked ||
                sh.state == ShredState::Fresh);
    if (sh.state == ShredState::Blocked)
        sh.state = ShredState::Ready;
    g.ready.push_back(id);
    wakeIdleSequencer(g, /*needOms=*/id == 0);
}

void
ShredRuntime::wakeIdleSequencer(Gang &g, bool needOms)
{
    if (!g.proc)
        return; // thread not loaded; onThreadLoaded will re-dispatch
    MispProcessor &proc = *g.proc;

    auto tryWake = [&](Sequencer &seq) {
        if (!seq.idleOrSuspendedIdle() || seq.pendingSignals() > 0 ||
            g.wakesInFlight.count(seq.sid()))
            return false;
        cpu::SignalPayload payload;
        payload.eip = symAmsEntry_;
        payload.esp = 0; // the entry stub is stackless
        proc.fabric().send(arch::SignalFabric::Delivery::Signal, seq,
                           payload);
        g.wakesInFlight.insert(seq.sid());
        ++wakeSignals_;
        return true;
    };

    if (needOms) {
        tryWake(proc.oms());
        return;
    }
    for (unsigned i = 0; i < proc.numAms(); ++i) {
        if (tryWake(proc.amsAt(i)))
            return;
    }
    // No idle AMS: the OMS may gang-schedule too if it is parked.
    tryWake(proc.oms());
}

// ---------------------------------------------------------------------
// Services
// ---------------------------------------------------------------------

Cycles
ShredRuntime::doInit(MispProcessor &proc, Sequencer &seq)
{
    os::OsThread *t = proc.currentThread();
    MISP_ASSERT(t != nullptr);
    if (t->runtimeData())
        return costs_.queueOp; // idempotent re-init

    auto gang = std::make_unique<Gang>();
    gang->thread = t;
    gang->proc = &proc;
    Shred main;
    main.id = 0;
    main.state = ShredState::Running;
    gang->shreds.emplace(0, main);
    gang->runningOn[seq.sid()] = 0;
    t->setRuntimeData(gang.get());
    gangs_.emplace(t, std::move(gang));
    return costs_.shredCreate;
}

Cycles
ShredRuntime::doShredCreate(Gang &g, Sequencer &seq)
{
    VAddr fn = seq.context().regs[0];
    Word arg = seq.context().regs[1];

    Shred sh;
    sh.id = g.nextId++;
    sh.fn = fn;
    sh.arg = arg;
    VAddr stackBase = as(g).allocRegion(
        kStackBytes, /*writable=*/true,
        "shredstack:" + std::to_string(sh.id));
    sh.stackTop = stackBase + kStackBytes;
    // Seed the return address so a returning shred lands in shred_done.
    as(g).pokeWord(sh.stackTop - 8, symShredDone_, 8);
    sh.state = ShredState::Fresh;

    ++g.outstanding;
    ++shredsCreated_;
    ShredId id = sh.id;
    g.shreds.emplace(id, sh);
    g.ready.push_back(id);
    wakeIdleSequencer(g, /*needOms=*/false);

    seq.context().regs[0] = id;
    return costs_.shredCreate + costs_.queueOp;
}

Cycles
ShredRuntime::doJoinAll(Gang &g, Sequencer &seq)
{
    MISP_ASSERT(seq.sid() == 0); // join_all runs on the main shred/OMS
    MISP_ASSERT(shredIdOn(g, seq) == 0);
    if (g.outstanding == 0)
        return costs_.queueOp; // nothing to wait for

    blockCurrent(g, seq, ShredState::Blocked);
    g.mainWaiting = true;
    // Main becomes a gang scheduler (Figure 3): pull work immediately.
    scheduleNextOn(g, seq);
    return costs_.blockSwitch;
}

Cycles
ShredRuntime::doShredExit(Gang &g, Sequencer &seq)
{
    ShredId id = shredIdOn(g, seq);
    MISP_ASSERT(id != kInvalidShredId && id != 0);
    g.shreds.at(id).state = ShredState::Done;
    g.runningOn.erase(seq.sid());
    MISP_ASSERT(g.outstanding > 0);
    --g.outstanding;

    if (g.outstanding == 0 && g.mainWaiting) {
        g.mainWaiting = false;
        makeReady(g, 0);
    }
    scheduleNextOn(g, seq);
    return costs_.blockSwitch;
}

Cycles
ShredRuntime::doShredYield(Gang &g, Sequencer &seq)
{
    ShredId id = shredIdOn(g, seq);
    MISP_ASSERT(id != kInvalidShredId);
    blockCurrent(g, seq, ShredState::Ready);
    scheduleNextOn(g, seq);
    return costs_.blockSwitch;
}

bool
ShredRuntime::acquireOrWait(Gang & /*g*/, MutexObj &m, ShredId id)
{
    if (!m.locked) {
        m.locked = true;
        m.owner = id;
        return true;
    }
    m.waiters.push_back(id);
    return false;
}

Cycles
ShredRuntime::doMutexLock(Gang &g, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    MutexObj &m = g.mutexes[addr];
    ShredId id = shredIdOn(g, seq);
    if (!m.locked) {
        m.locked = true;
        m.owner = id;
        as(g).pokeWord(addr, 1, 8);
        ++syncFastPath_;
        return costs_.fastSync;
    }
    ++syncBlocked_;
    blockCurrent(g, seq, ShredState::Blocked);
    m.waiters.push_back(id);
    scheduleNextOn(g, seq);
    return costs_.blockSwitch;
}

Cycles
ShredRuntime::doMutexUnlock(Gang &g, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    MutexObj &m = g.mutexes[addr];
    if (!m.waiters.empty()) {
        // Direct handoff: ownership moves to the oldest waiter.
        ShredId w = m.waiters.front();
        m.waiters.pop_front();
        m.owner = w;
        makeReady(g, w);
    } else {
        m.locked = false;
        m.owner = kInvalidShredId;
        as(g).pokeWord(addr, 0, 8);
    }
    ++syncFastPath_;
    return costs_.fastSync;
}

Cycles
ShredRuntime::doBarrierWait(Gang &g, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    unsigned count = static_cast<unsigned>(seq.context().regs[1]);
    MISP_ASSERT(count > 0);
    BarrierObj &bar = g.barriers[addr];
    ++bar.arrived;
    if (bar.arrived >= count) {
        bar.arrived = 0;
        for (ShredId w : bar.waiting)
            makeReady(g, w);
        bar.waiting.clear();
        ++syncFastPath_;
        return costs_.fastSync * 2;
    }
    ++syncBlocked_;
    ShredId id = shredIdOn(g, seq);
    blockCurrent(g, seq, ShredState::Blocked);
    bar.waiting.push_back(id);
    scheduleNextOn(g, seq);
    return costs_.blockSwitch;
}

Cycles
ShredRuntime::doSemWait(Gang &g, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    SemObj &sem = g.sems[addr];
    if (!sem.initialized) {
        sem.value = static_cast<SWord>(as(g).peekWord(addr, 8));
        sem.initialized = true;
    }
    if (sem.value > 0) {
        --sem.value;
        as(g).pokeWord(addr, static_cast<Word>(sem.value), 8);
        ++syncFastPath_;
        return costs_.fastSync;
    }
    ++syncBlocked_;
    ShredId id = shredIdOn(g, seq);
    blockCurrent(g, seq, ShredState::Blocked);
    sem.waiters.push_back(id);
    scheduleNextOn(g, seq);
    return costs_.blockSwitch;
}

Cycles
ShredRuntime::doSemPost(Gang &g, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    SemObj &sem = g.sems[addr];
    if (!sem.initialized) {
        sem.value = static_cast<SWord>(as(g).peekWord(addr, 8));
        sem.initialized = true;
    }
    if (!sem.waiters.empty()) {
        ShredId w = sem.waiters.front();
        sem.waiters.pop_front();
        makeReady(g, w);
    } else {
        ++sem.value;
        as(g).pokeWord(addr, static_cast<Word>(sem.value), 8);
    }
    ++syncFastPath_;
    return costs_.fastSync;
}

Cycles
ShredRuntime::doCondWait(Gang &g, Sequencer &seq)
{
    VAddr condAddr = seq.context().regs[0];
    VAddr mutexAddr = seq.context().regs[1];
    CondObj &cond = g.conds[condAddr];
    MutexObj &m = g.mutexes[mutexAddr];
    ShredId id = shredIdOn(g, seq);

    // Atomically release the mutex and wait.
    if (!m.waiters.empty()) {
        ShredId w = m.waiters.front();
        m.waiters.pop_front();
        m.owner = w;
        makeReady(g, w);
    } else {
        m.locked = false;
        m.owner = kInvalidShredId;
        as(g).pokeWord(mutexAddr, 0, 8);
    }

    ++syncBlocked_;
    blockCurrent(g, seq, ShredState::Blocked);
    cond.waiters.push_back(id);
    scheduleNextOn(g, seq);
    return costs_.blockSwitch;
}

Cycles
ShredRuntime::doCondSignal(Gang &g, Sequencer &seq, bool broadcast)
{
    VAddr condAddr = seq.context().regs[0];
    VAddr mutexAddr = seq.context().regs[1];
    CondObj &cond = g.conds[condAddr];
    MutexObj &m = g.mutexes[mutexAddr];

    while (!cond.waiters.empty()) {
        ShredId w = cond.waiters.front();
        cond.waiters.pop_front();
        // The woken shred must re-acquire the mutex before resuming.
        if (acquireOrWait(g, m, w)) {
            as(g).pokeWord(mutexAddr, 1, 8);
            makeReady(g, w);
        }
        if (!broadcast)
            break;
    }
    ++syncFastPath_;
    return costs_.fastSync;
}

Cycles
ShredRuntime::doEventWait(Gang &g, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    EventObj &ev = g.events[addr];
    if (!ev.initialized) {
        ev.set = as(g).peekWord(addr, 8) != 0;
        ev.initialized = true;
    }
    if (ev.set) {
        ++syncFastPath_;
        return costs_.fastSync;
    }
    ++syncBlocked_;
    ShredId id = shredIdOn(g, seq);
    blockCurrent(g, seq, ShredState::Blocked);
    ev.waiters.push_back(id);
    scheduleNextOn(g, seq);
    return costs_.blockSwitch;
}

Cycles
ShredRuntime::doEventSet(Gang &g, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    EventObj &ev = g.events[addr];
    ev.set = true;
    ev.initialized = true;
    as(g).pokeWord(addr, 1, 8);
    for (ShredId w : ev.waiters)
        makeReady(g, w);
    ev.waiters.clear();
    ++syncFastPath_;
    return costs_.fastSync;
}

Cycles
ShredRuntime::doMalloc(Gang &g, Sequencer &seq)
{
    std::uint64_t size = seq.context().regs[0];
    if (size == 0)
        size = 8;
    VAddr addr = as(g).allocRegion(size, /*writable=*/true, "malloc");
    seq.context().regs[0] = addr;
    return costs_.malloc;
}

Cycles
ShredRuntime::doExitProcess(MispProcessor &proc, Sequencer &seq)
{
    Word code = seq.context().regs[0];
    seq.enterKernelEpisode();
    proc.raiseSyscallEpisode(static_cast<Word>(os::Sys::ExitProcess),
                             {code, 0, 0, 0});
    return 10;
}

Cycles
ShredRuntime::rtcall(MispProcessor &proc, Sequencer &seq, Word service)
{
    switch (static_cast<Rt>(service)) {
      case Rt::Init:
        return doInit(proc, seq);
      case Rt::Proxy:
        return proc.serviceProxy(seq);
      case Rt::ExitProcess:
        return doExitProcess(proc, seq);
      default:
        break;
    }

    // A wake SIGNAL issued for one gang can be delivered after the OS
    // switched a different (non-shredded) thread onto this processor;
    // the orphaned gang-scheduler pull simply parks the sequencer.
    os::OsThread *cur = proc.currentThread();
    if (static_cast<Rt>(service) == Rt::SchedNext &&
        (!cur || !cur->runtimeData())) {
        seq.park();
        return 0;
    }

    Gang &g = gangOf(proc, seq);
    switch (static_cast<Rt>(service)) {
      case Rt::ShredCreate: return doShredCreate(g, seq);
      case Rt::JoinAll: return doJoinAll(g, seq);
      case Rt::ShredExit: return doShredExit(g, seq);
      case Rt::ShredYield: return doShredYield(g, seq);
      case Rt::ShredSelf:
        seq.context().regs[0] = shredIdOn(g, seq);
        return costs_.queueOp;
      case Rt::SchedNext:
        scheduleNextOn(g, seq);
        return costs_.queueOp;
      case Rt::MutexLock: return doMutexLock(g, seq);
      case Rt::MutexUnlock: return doMutexUnlock(g, seq);
      case Rt::BarrierWait: return doBarrierWait(g, seq);
      case Rt::SemWait: return doSemWait(g, seq);
      case Rt::SemPost: return doSemPost(g, seq);
      case Rt::CondWait: return doCondWait(g, seq);
      case Rt::CondSignal: return doCondSignal(g, seq, false);
      case Rt::CondBroadcast: return doCondSignal(g, seq, true);
      case Rt::EventWait: return doEventWait(g, seq);
      case Rt::EventSet: return doEventSet(g, seq);
      case Rt::Malloc: return doMalloc(g, seq);
      case Rt::Prefault:
        warn("shredlib: Rt::Prefault is unused (stub loops inline)");
        return 0;
      default:
        warn("shredlib: unknown RTCALL %llu",
             (unsigned long long)service);
        return 0;
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

template <class Ar>
void
ShredRuntime::archiveGang(Ar &a, Gang &g)
{
    constexpr std::uint64_t kShredBytes = 4 * 8 + 1 + snap::kContextBytes;
    auto ids = [&](auto &seq, const char *field) {
        snap::sequence(a, seq, 8, field, [&](ShredId &id) { a.u64(id); });
    };

    // Shreds in id order, so identical states produce identical bytes.
    std::vector<Shred *> byId;
    if constexpr (!Ar::kLoading) {
        for (auto &[id, sh] : g.shreds) // unordered: sorted below
            byId.push_back(&sh);
        std::sort(byId.begin(), byId.end(),
                  [](const Shred *x, const Shred *y) { return x->id < y->id; });
    }
    std::uint64_t n = byId.size();
    a.count(n, kShredBytes, "shred");
    for (std::uint64_t i = 0; i < n; ++i) {
        Shred loaded;
        Shred &sh = Ar::kLoading ? loaded : *byId[i];
        a.u64(sh.id);
        a.u64(sh.fn);
        a.u64(sh.arg);
        a.u64(sh.stackTop);
        a.enumByte(sh.state, static_cast<std::size_t>(ShredState::Done) + 1,
                   "shred state");
        snap::archive(a, sh.ctx);
        if constexpr (Ar::kLoading) {
            if (!g.shreds.emplace(sh.id, sh).second)
                throw snap::SnapError("image: gang holds shred " +
                                      std::to_string(sh.id) + " twice");
        }
    }

    ids(g.ready, "ready shred");
    a.u64(g.nextId);
    a.u32(g.outstanding);
    a.b(g.mainWaiting);

    std::vector<std::pair<SequencerId, ShredId>> running(
        // misplint: allow(det-unordered-iter) — sorted below
        g.runningOn.begin(), g.runningOn.end());
    std::sort(running.begin(), running.end());
    snap::sequence(a, running, 16, "shred binding", [&](auto &bound) {
        a.u64(bound.first);
        a.u64(bound.second);
    });
    std::vector<SequencerId> wakes(g.wakesInFlight.begin(),
                                   g.wakesInFlight.end());
    snap::sequence(a, wakes, 8, "wake in flight",
                   [&](SequencerId &sid) { a.u64(sid); });
    if constexpr (Ar::kLoading) {
        for (const auto &bound : running) {
            if (!g.runningOn.insert(bound).second)
                throw snap::SnapError("image: gang binds sequencer " +
                                      std::to_string(bound.first) +
                                      " twice");
        }
        g.wakesInFlight.insert(wakes.begin(), wakes.end());
    }

    snap::entries(a, g.mutexes, 8 + 1 + 8 + 8, "shred mutex",
                  [&](VAddr &addr, MutexObj &m) {
                      a.u64(addr);
                      a.b(m.locked);
                      a.u64(m.owner);
                      ids(m.waiters, "mutex waiter");
                  });
    snap::entries(a, g.barriers, 8 + 4 + 8, "shred barrier",
                  [&](VAddr &addr, BarrierObj &bar) {
                      a.u64(addr);
                      a.u32(bar.arrived);
                      ids(bar.waiting, "barrier waiter");
                  });
    snap::entries(a, g.sems, 8 + 8 + 1 + 8, "shred semaphore",
                  [&](VAddr &addr, SemObj &sem) {
                      a.u64(addr);
                      a.i64(sem.value);
                      a.b(sem.initialized);
                      ids(sem.waiters, "semaphore waiter");
                  });
    snap::entries(a, g.conds, 8 + 8, "shred condition",
                  [&](VAddr &addr, CondObj &cond) {
                      a.u64(addr);
                      ids(cond.waiters, "condition waiter");
                  });
    snap::entries(a, g.events, 8 + 1 + 1 + 8, "shred event",
                  [&](VAddr &addr, EventObj &ev) {
                      a.u64(addr);
                      a.b(ev.set);
                      a.b(ev.initialized);
                      ids(ev.waiters, "event waiter");
                  });
}

template <class Ar>
void
ShredRuntime::archive(Ar &a, arch::MispSystem &sys)
{
    // Least image bytes of a gang: its thread and processor, then an
    // empty record of every table archiveGang writes.
    constexpr std::uint64_t kGangBytes = 7 * 8 + 4 + 1 + 5 * 8;
    const auto tids = sys.kernel().threadIds();
    const snap::Lookup cpus{
        "cpu", "processor", &arch::MispProcessor::cpuId,
        [&sys](std::uint64_t cpu) -> arch::MispProcessor * {
            return std::in_range<int>(cpu)
                       ? sys.processorForCpu(static_cast<int>(cpu))
                       : nullptr;
        },
        ~std::uint64_t{0}}; // a gang not loaded on a processor

    // Gangs in tid order.
    std::vector<Gang *> ordered;
    if constexpr (!Ar::kLoading) {
        // misplint: allow(det-unordered-iter) — sorted by tid below
        for (auto &[thread, gang] : gangs_) {
            (void)thread;
            ordered.push_back(gang.get());
        }
        std::sort(ordered.begin(), ordered.end(),
                  [](const Gang *x, const Gang *y) {
                      return x->thread->tid() < y->thread->tid();
                  });
    } else {
        MISP_ASSERT(gangs_.empty());
    }
    std::uint64_t n = ordered.size();
    a.count(n, kGangBytes, "shred gang");
    for (std::uint64_t i = 0; i < n; ++i) {
        std::unique_ptr<Gang> fresh;
        if constexpr (Ar::kLoading)
            fresh = std::make_unique<Gang>();
        Gang &g = Ar::kLoading ? *fresh : *ordered[i];
        a.ref(g.thread, tids, "shred gang");
        a.optRef(g.proc, cpus, "shred gang");
        archiveGang(a, g);
        if constexpr (Ar::kLoading) {
            os::OsThread *t = g.thread;
            if (!gangs_.emplace(t, std::move(fresh)).second)
                throw snap::SnapError("image: two shred gangs for thread "
                                      "tid " + std::to_string(t->tid()));
            t->setRuntimeData(&g);
        }
    }
}

MISP_SNAP_ARCHIVE(ShredRuntime, arch::MispSystem &);

void
ShredRuntime::onThreadLoaded(MispProcessor &proc, os::OsThread &t)
{
    auto *g = static_cast<Gang *>(t.runtimeData());
    if (!g)
        return; // not a shredded thread
    g->proc = &proc;
    // Re-arm parked sequencers for any work that arrived or survived
    // the context switch.
    std::size_t wakes = std::min<std::size_t>(g->ready.size(),
                                              proc.numAms() + 1);
    for (std::size_t i = 0; i < wakes; ++i)
        wakeIdleSequencer(*g, /*needOms=*/false);
    // Main (shred 0) resumes only on the OMS; make sure the OMS itself
    // is re-armed when main is queued.
    for (ShredId id : g->ready) {
        if (id == 0) {
            wakeIdleSequencer(*g, /*needOms=*/true);
            break;
        }
    }
}

void
ShredRuntime::onThreadUnloading(MispProcessor &proc, os::OsThread &t)
{
    (void)proc;
    auto *g = static_cast<Gang *>(t.runtimeData());
    if (!g)
        return;
    g->proc = nullptr;
    // Any in-flight wakes target sequencers that are being torn off this
    // thread; their queued signals are dropped by unloadForSwitch().
    g->wakesInFlight.clear();
}

} // namespace misp::rt
