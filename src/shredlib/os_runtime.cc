#include "os_runtime.hh"

#include <algorithm>

#include "snapshot/serialize.hh"

namespace misp::rt {

using cpu::Sequencer;
using arch::MispProcessor;
using os::Sys;

OsApiRuntime::OsApiRuntime(stats::StatGroup *parent, RtCosts costs)
    : costs_(costs),
      statGroup_("osrt", parent),
      threadsSpawned_(&statGroup_, "threadsSpawned"),
      futexBlocks_(&statGroup_, "futexBlocks"),
      spinAcquires_(&statGroup_, "spinAcquires")
{
    symShredDone_ = stubLibrary(Backend::OsThread).symbol("shred_done");
}

OsApiRuntime::~OsApiRuntime() = default;

OsApiRuntime::Group &
OsApiRuntime::groupOf(MispProcessor &proc)
{
    os::OsThread *t = proc.currentThread();
    MISP_ASSERT(t != nullptr);
    os::Process *p = t->process();
    auto it = groups_.find(p);
    if (it == groups_.end()) {
        auto group = std::make_unique<Group>();
        group->process = p;
        group->main = t;
        it = groups_.emplace(p, std::move(group)).first;
    }
    return *it->second;
}

mem::AddressSpace &
OsApiRuntime::as(MispProcessor &proc)
{
    return proc.currentThread()->process()->addressSpace();
}

void
OsApiRuntime::rewind(Sequencer &seq)
{
    // The RTCALL advanced EIP before dispatching to us; stepping back one
    // instruction makes the service re-execute when the thread resumes.
    seq.context().eip -= isa::kInstBytes;
}

Cycles
OsApiRuntime::kernelCall(MispProcessor &proc, Sequencer &seq, Sys number,
                         std::array<Word, 4> args, bool patchRet)
{
    seq.enterKernelEpisode();
    proc.raiseSyscallEpisode(static_cast<Word>(number), args,
                             patchRet ? seq.sid()
                                      : arch::Ring0Work::kNoPatch);
    return 10; // trap issue; the Ring-0 time is charged by the episode
}

// ---------------------------------------------------------------------
// Services
// ---------------------------------------------------------------------

Cycles
OsApiRuntime::doShredCreate(MispProcessor &proc, Sequencer &seq)
{
    Group &g = groupOf(proc);
    (void)g;
    VAddr fn = seq.context().regs[0];
    Word arg = seq.context().regs[1];

    VAddr stackBase = as(proc).allocRegion(kStackBytes, /*writable=*/true,
                                           "threadstack");
    VAddr sp = stackBase + kStackBytes - 8;
    as(proc).pokeWord(sp, symShredDone_, 8);

    ++threadsSpawned_;
    return costs_.shredCreate +
           kernelCall(proc, seq, Sys::ThreadCreate, {fn, sp, arg, 0},
                      /*patchRet=*/true);
}

Cycles
OsApiRuntime::doJoinAll(MispProcessor &proc, Sequencer &seq)
{
    Group &g = groupOf(proc);
    os::OsThread *self = proc.currentThread();
    for (os::OsThread *t : g.process->threads()) {
        if (t == g.main || t == self)
            continue;
        if (t->state() != os::ThreadState::Done) {
            // Block on this one, then re-execute to find the next.
            rewind(seq);
            return kernelCall(proc, seq, Sys::ThreadJoin,
                              {t->tid(), 0, 0, 0}, /*patchRet=*/false);
        }
    }
    return costs_.queueOp; // all joined
}

Cycles
OsApiRuntime::doMutexLock(MispProcessor &proc, Sequencer &seq)
{
    Group &g = groupOf(proc);
    VAddr addr = seq.context().regs[0];
    Tid self = proc.currentThread()->tid();

    // Returning from a kernel block? Account the waiter slot.
    auto waitIt = g.mutexWaiting.find(self);
    bool wasWaiting = waitIt != g.mutexWaiting.end() &&
                      waitIt->second == addr;
    if (wasWaiting)
        g.mutexWaiting.erase(waitIt);

    Word word = as(proc).peekWord(addr, 8);
    if (word == 0) {
        if (wasWaiting)
            --g.waiters[addr];
        // Acquire; mark contended (2) if someone is still queued so the
        // eventual unlock issues a wake.
        bool contended = g.waiters[addr] > 0;
        as(proc).pokeWord(addr, contended ? 2 : 1, 8);
        ++spinAcquires_;
        return costs_.fastSync;
    }

    // Contended: brief user-level spin, then block in the kernel.
    Cycles spin = costs_.spinTry * costs_.spinTries;
    as(proc).pokeWord(addr, 2, 8);
    if (!wasWaiting)
        ++g.waiters[addr];
    g.mutexWaiting[self] = addr;
    ++futexBlocks_;
    rewind(seq);
    return spin + kernelCall(proc, seq, Sys::FutexWait, {addr, 2, 0, 0},
                             /*patchRet=*/false);
}

Cycles
OsApiRuntime::doMutexUnlock(MispProcessor &proc, Sequencer &seq)
{
    Group &g = groupOf(proc);
    VAddr addr = seq.context().regs[0];
    Word word = as(proc).peekWord(addr, 8);
    as(proc).pokeWord(addr, 0, 8);
    if (word == 2 || g.waiters[addr] > 0) {
        return costs_.fastSync +
               kernelCall(proc, seq, Sys::FutexWake, {addr, 1, 0, 0},
                          /*patchRet=*/false);
    }
    return costs_.fastSync;
}

Cycles
OsApiRuntime::doBarrierWait(MispProcessor &proc, Sequencer &seq)
{
    Group &g = groupOf(proc);
    VAddr addr = seq.context().regs[0];
    unsigned count = static_cast<unsigned>(seq.context().regs[1]);
    MISP_ASSERT(count > 0);

    Word gen = as(proc).peekWord(addr, 8);
    unsigned &arrived = g.barrierArrived[addr];
    ++arrived;
    if (arrived >= count) {
        arrived = 0;
        as(proc).pokeWord(addr, gen + 1, 8);
        return costs_.fastSync +
               kernelCall(proc, seq, Sys::FutexWake,
                          {addr, ~Word{0}, 0, 0}, /*patchRet=*/false);
    }
    ++futexBlocks_;
    // Wait for the generation to advance; a no-wait return (generation
    // already bumped) simply falls through.
    return costs_.fastSync +
           kernelCall(proc, seq, Sys::FutexWait, {addr, gen, 0, 0},
                      /*patchRet=*/false);
}

Cycles
OsApiRuntime::doSemWait(MispProcessor &proc, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    Word value = as(proc).peekWord(addr, 8);
    if (value > 0) {
        as(proc).pokeWord(addr, value - 1, 8);
        ++spinAcquires_;
        return costs_.fastSync;
    }
    ++futexBlocks_;
    rewind(seq);
    return kernelCall(proc, seq, Sys::FutexWait, {addr, 0, 0, 0},
                      /*patchRet=*/false);
}

Cycles
OsApiRuntime::doSemPost(MispProcessor &proc, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    Word value = as(proc).peekWord(addr, 8);
    as(proc).pokeWord(addr, value + 1, 8);
    // Kernel-object semantics (Win32 semaphores live in the kernel):
    // every post may release a waiter.
    return costs_.fastSync +
           kernelCall(proc, seq, Sys::FutexWake, {addr, 1, 0, 0},
                      /*patchRet=*/false);
}

Cycles
OsApiRuntime::doCondWait(MispProcessor &proc, Sequencer &seq)
{
    Group &g = groupOf(proc);
    VAddr condAddr = seq.context().regs[0];
    VAddr mutexAddr = seq.context().regs[1];
    Tid self = proc.currentThread()->tid();

    auto it = g.condWaiting.find(self);
    if (it == g.condWaiting.end()) {
        // Phase 1: release the mutex, record the generation, and wait.
        CondState st;
        st.phase = CondPhase::Wait;
        st.genAtWait = as(proc).peekWord(condAddr, 8);
        g.condWaiting.emplace(self, st);

        Word word = as(proc).peekWord(mutexAddr, 8);
        as(proc).pokeWord(mutexAddr, 0, 8);
        ++futexBlocks_;
        rewind(seq);
        if (word == 2 || g.waiters[mutexAddr] > 0) {
            // The unlock must wake a mutex waiter first; the condition
            // wait happens on re-execution (phase stays Wait but the
            // generation was already captured).
            return costs_.fastSync +
                   kernelCall(proc, seq, Sys::FutexWake,
                              {mutexAddr, 1, 0, 0}, /*patchRet=*/false);
        }
        return costs_.fastSync +
               kernelCall(proc, seq, Sys::FutexWait,
                          {condAddr, st.genAtWait, 0, 0},
                          /*patchRet=*/false);
    }

    CondState &st = it->second;
    if (st.phase == CondPhase::Wait) {
        Word gen = as(proc).peekWord(condAddr, 8);
        if (gen == st.genAtWait) {
            // Still unsignaled (we got here via the unlock-wake path):
            // block on the condition word now.
            rewind(seq);
            return kernelCall(proc, seq, Sys::FutexWait,
                              {condAddr, st.genAtWait, 0, 0},
                              /*patchRet=*/false);
        }
        st.phase = CondPhase::Relock;
    }

    // Phase 2: re-acquire the mutex.
    Word word = as(proc).peekWord(mutexAddr, 8);
    if (word == 0) {
        bool contended = g.waiters[mutexAddr] > 0;
        as(proc).pokeWord(mutexAddr, contended ? 2 : 1, 8);
        g.condWaiting.erase(it);
        return costs_.fastSync;
    }
    as(proc).pokeWord(mutexAddr, 2, 8);
    rewind(seq);
    return costs_.spinTry * costs_.spinTries +
           kernelCall(proc, seq, Sys::FutexWait, {mutexAddr, 2, 0, 0},
                      /*patchRet=*/false);
}

Cycles
OsApiRuntime::doCondSignal(MispProcessor &proc, Sequencer &seq,
                           bool broadcast)
{
    VAddr condAddr = seq.context().regs[0];
    Word gen = as(proc).peekWord(condAddr, 8);
    as(proc).pokeWord(condAddr, gen + 1, 8);
    Word n = broadcast ? ~Word{0} : 1;
    return costs_.fastSync +
           kernelCall(proc, seq, Sys::FutexWake, {condAddr, n, 0, 0},
                      /*patchRet=*/false);
}

Cycles
OsApiRuntime::doEventWait(MispProcessor &proc, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    if (as(proc).peekWord(addr, 8) != 0)
        return costs_.fastSync;
    ++futexBlocks_;
    rewind(seq);
    return kernelCall(proc, seq, Sys::FutexWait, {addr, 0, 0, 0},
                      /*patchRet=*/false);
}

Cycles
OsApiRuntime::doEventSet(MispProcessor &proc, Sequencer &seq)
{
    VAddr addr = seq.context().regs[0];
    as(proc).pokeWord(addr, 1, 8);
    return costs_.fastSync +
           kernelCall(proc, seq, Sys::FutexWake, {addr, ~Word{0}, 0, 0},
                      /*patchRet=*/false);
}

Cycles
OsApiRuntime::doMalloc(MispProcessor &proc, Sequencer &seq)
{
    std::uint64_t size = seq.context().regs[0];
    if (size == 0)
        size = 8;
    VAddr addr = as(proc).allocRegion(size, /*writable=*/true, "malloc");
    seq.context().regs[0] = addr;
    return costs_.malloc;
}

Cycles
OsApiRuntime::rtcall(MispProcessor &proc, Sequencer &seq, Word service)
{
    switch (static_cast<Rt>(service)) {
      case Rt::Init:
        groupOf(proc);
        return costs_.queueOp;
      case Rt::ShredCreate:
        return doShredCreate(proc, seq);
      case Rt::JoinAll:
        return doJoinAll(proc, seq);
      case Rt::ShredSelf:
        // Models a TLS read; no kernel transition.
        seq.context().regs[0] = proc.currentThread()->tid();
        return costs_.queueOp;
      case Rt::MutexLock:
        return doMutexLock(proc, seq);
      case Rt::MutexUnlock:
        return doMutexUnlock(proc, seq);
      case Rt::BarrierWait:
        return doBarrierWait(proc, seq);
      case Rt::SemWait:
        return doSemWait(proc, seq);
      case Rt::SemPost:
        return doSemPost(proc, seq);
      case Rt::CondWait:
        return doCondWait(proc, seq);
      case Rt::CondSignal:
        return doCondSignal(proc, seq, false);
      case Rt::CondBroadcast:
        return doCondSignal(proc, seq, true);
      case Rt::EventWait:
        return doEventWait(proc, seq);
      case Rt::EventSet:
        return doEventSet(proc, seq);
      case Rt::Malloc:
        return doMalloc(proc, seq);
      default:
        warn("osrt: unexpected RTCALL %llu",
             (unsigned long long)service);
        return 0;
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

template <class Ar>
void
OsApiRuntime::archive(Ar &a, arch::MispSystem &sys)
{
    // Least image bytes of a group: its process and main thread, then
    // four empty tables.
    constexpr std::uint64_t kGroupBytes = 2 * 8 + 4 * 8;
    const auto pids = sys.kernel().processIds();
    const auto tids = sys.kernel().threadIds();

    // Groups in pid order.
    std::vector<Group *> ordered;
    if constexpr (!Ar::kLoading) {
        // misplint: allow(det-unordered-iter) — sorted by pid below
        for (auto &[process, group] : groups_) {
            (void)process;
            ordered.push_back(group.get());
        }
        std::sort(ordered.begin(), ordered.end(),
                  [](const Group *x, const Group *y) {
                      return x->process->pid() < y->process->pid();
                  });
    } else {
        MISP_ASSERT(groups_.empty());
    }
    std::uint64_t n = ordered.size();
    a.count(n, kGroupBytes, "osrt group");
    for (std::uint64_t i = 0; i < n; ++i) {
        std::unique_ptr<Group> fresh;
        if constexpr (Ar::kLoading)
            fresh = std::make_unique<Group>();
        Group &g = Ar::kLoading ? *fresh : *ordered[i];
        a.ref(g.process, pids, "osrt group");
        a.ref(g.main, tids, "osrt group main");
        snap::entries(a, g.waiters, 8 + 8, "futex waiter count",
                      [&](VAddr &addr, int &count) {
                          a.u64(addr);
                          a.i64(count);
                      });
        snap::entries(a, g.barrierArrived, 8 + 4, "barrier arrival count",
                      [&](VAddr &addr, unsigned &arrived) {
                          a.u64(addr);
                          a.u32(arrived);
                      });
        snap::entries(a, g.mutexWaiting, 8 + 8, "mutex wait",
                      [&](Tid &tid, VAddr &addr) {
                          a.u64(tid);
                          a.u64(addr);
                      });
        snap::entries(a, g.condWaiting, 8 + 1 + 8, "condition wait",
                      [&](Tid &tid, CondState &st) {
                          a.u64(tid);
                          a.enumByte(st.phase,
                                     static_cast<std::size_t>(
                                         CondPhase::Relock) + 1,
                                     "condition-wait phase");
                          a.u64(st.genAtWait);
                      });
        if constexpr (Ar::kLoading) {
            os::Process *p = g.process;
            if (!groups_.emplace(p, std::move(fresh)).second)
                throw snap::SnapError("image: two osrt groups for pid " +
                                      std::to_string(p->pid()));
        }
    }
}

MISP_SNAP_ARCHIVE(OsApiRuntime, arch::MispSystem &);

void
OsApiRuntime::onThreadLoaded(MispProcessor &proc, os::OsThread &t)
{
    (void)proc;
    (void)t;
}

void
OsApiRuntime::onThreadUnloading(MispProcessor &proc, os::OsThread &t)
{
    (void)proc;
    (void)t;
}

} // namespace misp::rt
