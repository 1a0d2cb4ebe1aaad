#include "kernel.hh"

#include <cmath>

#include "obs/trace.hh"
#include "snapshot/state_io.hh"

namespace misp::os {

Kernel::Kernel(EventQueue &eq, mem::PhysicalMemory &pmem,
               const KernelConfig &config, ConfigReads &reads,
               stats::StatGroup *parent)
    : eq_(eq),
      pmem_(pmem),
      config_(config),
      reads_(reads),
      sleepWakes_(eq, *this, "kernel.sleepWake", kSleepWakePrio),
      statGroup_("kernel", parent),
      syscalls_(&statGroup_, "syscalls"),
      pageFaults_(&statGroup_, "pageFaults"),
      timerIrqs_(&statGroup_, "timerIrqs"),
      deviceIrqs_(&statGroup_, "deviceIrqs"),
      ctxSwitches_(&statGroup_, "ctxSwitches"),
      threadsCreated_(&statGroup_, "threadsCreated"),
      badFaults_(&statGroup_, "badFaults")
{}

Kernel::~Kernel() = default;

int
Kernel::addCpu()
{
    current_.push_back(nullptr);
    return static_cast<int>(current_.size()) - 1;
}

Process *
Kernel::createProcess(const std::string &name)
{
    processes_.push_back(
        std::make_unique<Process>(nextPid_++, name, pmem_));
    return processes_.back().get();
}

OsThread *
Kernel::createThread(Process *proc, VAddr eip, VAddr esp, Word arg)
{
    MISP_ASSERT(proc != nullptr);
    threads_.push_back(
        std::make_unique<OsThread>(nextTid_++, proc, eip, esp, arg));
    OsThread *t = threads_.back().get();
    proc->addThread(t);
    ++threadsCreated_;
    makeReady(t);
    return t;
}

void
Kernel::makeReady(OsThread *t)
{
    t->setState(ThreadState::Ready);
    t->setCpu(-1);
    ready_.push_back(t);
    wakeIdleCpu();
}

void
Kernel::wakeIdleCpu()
{
    if (!client_ || ready_.empty())
        return;
    for (int cpu = 0; cpu < static_cast<int>(current_.size()); ++cpu) {
        if (current_[cpu] != nullptr)
            continue;
        bool eligible = false;
        for (OsThread *t : ready_) {
            if (t->allowedOn(cpu)) {
                eligible = true;
                break;
            }
        }
        if (eligible) {
            client_->cpuWake(cpu);
            return;
        }
    }
}

OsThread *
Kernel::pickNext(int cpu)
{
    MISP_ASSERT(cpu >= 0 && cpu < static_cast<int>(current_.size()));
    MISP_ASSERT(current_[cpu] == nullptr);
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
        if (!(*it)->allowedOn(cpu))
            continue;
        OsThread *t = *it;
        ready_.erase(it);
        t->setState(ThreadState::Running);
        t->setCpu(cpu);
        t->quantumUsed = 0;
        current_[cpu] = t;
        return t;
    }
    return nullptr;
}

bool
Kernel::processAlive(const Process *proc) const
{
    return proc && !proc->allThreadsDone();
}

Process *
Kernel::processByPid(Pid pid) const
{
    for (const auto &p : processes_) {
        if (p->pid() == pid)
            return p.get();
    }
    return nullptr;
}

OsThread *
Kernel::threadByTid(Tid tid) const
{
    for (const auto &t : threads_) {
        if (t->tid() == tid)
            return t.get();
    }
    return nullptr;
}

template <class Ar>
void
Kernel::archive(Ar &a)
{
    const auto tids = threadIds();
    const auto pids = processIds();
    // Least image bytes of a process (pid, name, exit state, an empty
    // address space) and of a thread (through its empty affinity list).
    constexpr std::uint64_t kProcessBytes = 8 + 8 + 1 + 8 + 5 * 8;
    constexpr std::uint64_t kThreadBytes =
        8 + 8 + 1 + snap::kContextBytes + 8 + 8 + 4 + 8;

    a.u64(nextPid_);
    a.u64(nextTid_);
    // An image holds the seeded RNG, whether or not a draw came yet,
    // and a restored kernel draws on from it.
    if constexpr (!Ar::kLoading)
        seedRng();
    rngSeeded_ = true;
    std::array<std::uint64_t, 4> rng = rng_.state();
    for (std::uint64_t &w : rng)
        a.u64(w);
    rng_.setState(rng);

    std::uint64_t nProcs = processes_.size();
    a.count(nProcs, kProcessBytes, "kernel process");
    for (std::uint64_t i = 0; i < nProcs; ++i) {
        Pid pid = 0;
        std::string name;
        if constexpr (!Ar::kLoading) {
            pid = processes_[i]->pid();
            name = processes_[i]->name();
        }
        a.u64(pid);
        a.str(name);
        if constexpr (Ar::kLoading) {
            if (processByPid(pid))
                throw snap::SnapError("image: two processes have pid " +
                                      std::to_string(pid));
            processes_.push_back(
                std::make_unique<Process>(pid, name, pmem_));
        }
        Process &p = *processes_[i];
        a.b(p.exited);
        a.u64(p.exitCode);
        p.addressSpace().archive(a);
    }

    std::uint64_t nThreads = threads_.size();
    a.count(nThreads, kThreadBytes, "kernel thread");
    for (std::uint64_t i = 0; i < nThreads; ++i) {
        Tid tid = 0;
        Process *proc = nullptr;
        if constexpr (!Ar::kLoading) {
            tid = threads_[i]->tid();
            proc = threads_[i]->process();
        }
        a.u64(tid);
        a.ref(proc, pids, "thread");
        if constexpr (Ar::kLoading) {
            if (threadByTid(tid))
                throw snap::SnapError("image: two threads have tid " +
                                      std::to_string(tid));
            threads_.push_back(
                std::make_unique<OsThread>(tid, proc, 0, 0, 0));
            proc->addThread(threads_.back().get());
        }
        OsThread &t = *threads_[i];
        ThreadState state = t.state();
        a.enumByte(state,
                   static_cast<std::size_t>(ThreadState::Done) + 1,
                   "thread state");
        int slot = t.cpu();
        snap::archive(a, t.context());
        snap::sequence(a, t.amsSaveArea(), snap::kContextBytes,
                       "AMS save area",
                       [&](cpu::SequencerContext &ctx) {
                           snap::archive(a, ctx);
                       });
        a.i64(slot);
        a.u32(t.quantumUsed);
        snap::sequence(a, t.affinity, 8, "thread affinity",
                       [&](int &c) { a.i64(c); });
        t.setState(state);
        t.setCpu(slot);
    }

    snap::sequence(a, ready_, 8, "ready queue",
                   [&](OsThread *&t) { a.ref(t, tids, "ready queue"); });

    a.match(current_.size(), "kernel CPU count");
    for (OsThread *&cur : current_)
        a.optRef(cur, tids, "current thread");

    snap::entries(a, futexQueues_, 8 + 8 + 8, "futex queue",
                  [&](FutexKey &key, std::deque<OsThread *> &queue) {
                      a.u64(key.pid);
                      a.u64(key.addr);
                      snap::sequence(a, queue, 8, "futex waiter",
                                     [&](OsThread *&t) {
                                         a.ref(t, tids, "futex waiter");
                                     });
                  });

    snap::entries(a, joiners_, 8 + 8, "join queue",
                  [&](Tid &target, std::vector<OsThread *> &waiters) {
                      a.u64(target);
                      snap::sequence(a, waiters, 8, "join waiter",
                                     [&](OsThread *&t) {
                                         a.ref(t, tids, "join waiter");
                                     });
                  });

    snap::archivePending(a, eq_, sleepWakes_, kSleepWakePrio, 8,
                         "kernel sleep wakeup", [&](OsThread *&t) {
                             a.ref(t, tids, "sleep wakeup");
                         });
}

MISP_SNAP_ARCHIVE(Kernel);

void
Kernel::sleepWake(OsThread *const &t)
{
    if (t->state() == ThreadState::Blocked)
        makeReady(t);
}

void
Kernel::finishThread(OsThread &t)
{
    t.setState(ThreadState::Done);
    if (t.cpu() >= 0) {
        current_[t.cpu()] = nullptr;
        t.setCpu(-1);
    }
    // Wake joiners.
    auto it = joiners_.find(t.tid());
    if (it != joiners_.end()) {
        for (OsThread *j : it->second)
            makeReady(j);
        joiners_.erase(it);
    }
}

KernelResult
Kernel::scheduleDecision(int cpu, bool force)
{
    KernelResult res;
    OsThread *cur = current_[cpu];
    if (!force && cur &&
        cur->quantumUsed < knob<&KernelConfig::quantumTicks>())
        return res;
    bool haveEligible = false;
    for (OsThread *t : ready_) {
        if (t->allowedOn(cpu)) {
            haveEligible = true;
            break;
        }
    }
    if (!haveEligible && cur)
        return res; // nothing better to run

    res.reschedule = true;
    res.prev = cur;
    if (cur) {
        // Preempted: back of the queue.
        cur->setState(ThreadState::Ready);
        cur->setCpu(-1);
        current_[cpu] = nullptr;
        ready_.push_back(cur);
    }
    res.next = pickNext(cpu);
    obs::trace(obs::TraceKind::KernelSchedule, 0,
               static_cast<std::uint32_t>(cpu),
               res.prev ? res.prev->tid() + 1 : 0,
               res.next ? res.next->tid() + 1 : 0);
    if (res.prev != res.next && (res.prev || res.next)) {
        ++ctxSwitches_;
        obs::trace(obs::TraceKind::KernelCtxSwitch, 0,
                   static_cast<std::uint32_t>(cpu),
                   res.prev ? res.prev->tid() + 1 : 0,
                   res.next ? res.next->tid() + 1 : 0);
        res.priv += knob<&KernelConfig::ctxSwitch>();
    }
    return res;
}

KernelResult
Kernel::syscall(int cpu, OsThread &t, Word number,
                const std::array<Word, 4> &args)
{
    ++syscalls_;
    KernelResult res;
    res.priv = knob<&KernelConfig::syscallBase>();

    switch (static_cast<Sys>(number)) {
      case Sys::ExitThread: {
        finishThread(t);
        res.reschedule = true;
        res.prev = nullptr; // no context worth saving
        res.next = pickNext(cpu);
        res.priv += knob<&KernelConfig::ctxSwitch>();
        ++ctxSwitches_;
        obs::trace(obs::TraceKind::KernelCtxSwitch, 0,
                   static_cast<std::uint32_t>(cpu), 0,
                   res.next ? res.next->tid() + 1 : 0);
        break;
      }
      case Sys::ExitProcess: {
        Process *proc = t.process();
        proc->exited = true;
        proc->exitCode = args[0];
        // Reap every thread of the process.
        for (OsThread *pt : proc->threads()) {
            if (pt->state() == ThreadState::Done)
                continue;
            if (pt == &t || pt->cpu() < 0) {
                // Remove queued/blocked threads outright.
                if (pt->state() == ThreadState::Ready) {
                    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
                        if (*it == pt) {
                            ready_.erase(it);
                            break;
                        }
                    }
                }
                finishThread(*pt);
            }
            // Threads running on *other* CPUs finish when they next trap;
            // the driver checks processAlive().
        }
        res.reschedule = true;
        res.prev = nullptr;
        res.next = pickNext(cpu);
        res.priv += knob<&KernelConfig::ctxSwitch>();
        ++ctxSwitches_;
        obs::trace(obs::TraceKind::KernelCtxSwitch, 0,
                   static_cast<std::uint32_t>(cpu), 0,
                   res.next ? res.next->tid() + 1 : 0);
        if (processExitHook_)
            processExitHook_(proc);
        break;
      }
      case Sys::Write: {
        Word len = args[2];
        res.priv += knob<&KernelConfig::writePerByte>() * len;
        res.retval = len;
        break;
      }
      case Sys::Yield: {
        KernelResult sched = scheduleDecision(cpu, /*force=*/true);
        res.priv += sched.priv;
        res.reschedule = sched.reschedule;
        res.prev = sched.prev;
        res.next = sched.next;
        break;
      }
      case Sys::Sleep: {
        Tick wake = eq_.curTick() + args[0];
        t.setState(ThreadState::Blocked);
        current_[cpu] = nullptr;
        t.setCpu(-1);
        sleepWakes_.schedule(wake, &t);
        res.reschedule = true;
        res.prev = &t;
        res.next = pickNext(cpu);
        res.priv += knob<&KernelConfig::ctxSwitch>();
        ++ctxSwitches_;
        break;
      }
      case Sys::ThreadCreate: {
        OsThread *nt = createThread(t.process(), args[0], args[1], args[2]);
        res.retval = nt->tid();
        break;
      }
      case Sys::ThreadJoin: {
        Tid target = static_cast<Tid>(args[0]);
        OsThread *targetThread = nullptr;
        for (OsThread *pt : t.process()->threads()) {
            if (pt->tid() == target) {
                targetThread = pt;
                break;
            }
        }
        if (!targetThread || targetThread->state() == ThreadState::Done) {
            res.retval = 0; // already done (or never existed)
            break;
        }
        joiners_[target].push_back(&t);
        t.setState(ThreadState::Blocked);
        current_[cpu] = nullptr;
        t.setCpu(-1);
        res.reschedule = true;
        res.prev = &t;
        res.next = pickNext(cpu);
        res.priv += knob<&KernelConfig::ctxSwitch>();
        ++ctxSwitches_;
        break;
      }
      case Sys::FutexWait: {
        VAddr addr = args[0];
        Word expected = args[1];
        Word cur = t.process()->addressSpace().peekWord(addr, 8);
        if (cur != expected) {
            res.retval = 1; // value changed; no wait
            break;
        }
        futexQueues_[FutexKey{t.process()->pid(), addr}].push_back(&t);
        t.setState(ThreadState::Blocked);
        current_[cpu] = nullptr;
        t.setCpu(-1);
        res.reschedule = true;
        res.prev = &t;
        res.next = pickNext(cpu);
        res.priv += knob<&KernelConfig::ctxSwitch>();
        ++ctxSwitches_;
        break;
      }
      case Sys::FutexWake: {
        VAddr addr = args[0];
        Word count = args[1];
        auto it = futexQueues_.find(FutexKey{t.process()->pid(), addr});
        Word woken = 0;
        if (it != futexQueues_.end()) {
            while (woken < count && !it->second.empty()) {
                OsThread *w = it->second.front();
                it->second.pop_front();
                makeReady(w);
                ++woken;
            }
            if (it->second.empty())
                futexQueues_.erase(it);
        }
        res.retval = woken;
        break;
      }
      case Sys::GetTid:
        res.retval = t.tid();
        break;
      case Sys::Noop:
        break;
      default:
        warn("unknown syscall %llu from tid %u",
             (unsigned long long)number, t.tid());
        res.retval = static_cast<Word>(-1);
        break;
    }
    return res;
}

KernelResult
Kernel::pageFault(int cpu, OsThread &t, VAddr va, bool write)
{
    (void)cpu;
    ++pageFaults_;
    KernelResult res;
    res.priv = knob<&KernelConfig::pageFaultService>();
    mem::FaultOutcome out = t.process()->addressSpace().handleFault(va, write);
    if (out == mem::FaultOutcome::BadAccess) {
        ++badFaults_;
        res.fatalFault = true;
    }
    return res;
}

KernelResult
Kernel::timerTick(int cpu)
{
    ++timerIrqs_;
    KernelResult res;
    res.priv = knob<&KernelConfig::timerService>();
    OsThread *cur = current_[cpu];
    if (cur)
        ++cur->quantumUsed;
    obs::trace(obs::TraceKind::KernelQuantum, 0,
               static_cast<std::uint32_t>(cpu),
               cur ? cur->tid() + 1 : 0, cur ? cur->quantumUsed : 0);
    KernelResult sched = scheduleDecision(cpu, /*force=*/false);
    res.priv += sched.priv;
    res.reschedule = sched.reschedule;
    res.prev = sched.prev;
    res.next = sched.next;
    return res;
}

KernelResult
Kernel::deviceIrq(int cpu)
{
    (void)cpu;
    ++deviceIrqs_;
    KernelResult res;
    res.priv = knob<&KernelConfig::deviceIrqService>();
    return res;
}

void
Kernel::seedRng()
{
    if (rngSeeded_)
        return;
    rng_.reseed(knob<&KernelConfig::rngSeed>());
    rngSeeded_ = true;
}

Tick
Kernel::nextDeviceIrqGap()
{
    if (knob<&KernelConfig::deviceIrqMeanPeriod>() == 0)
        return 0;
    // Exponential inter-arrival from the deterministic RNG.
    seedRng();
    double u = rng_.real();
    if (u < 1e-12)
        u = 1e-12;
    double gap = -std::log(u) * static_cast<double>(
        knob<&KernelConfig::deviceIrqMeanPeriod>());
    if (gap < 1.0)
        gap = 1.0;
    return static_cast<Tick>(gap);
}

} // namespace misp::os
