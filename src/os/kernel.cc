#include "kernel.hh"

#include <cmath>

#include "obs/trace.hh"
#include "snapshot/state_io.hh"

namespace misp::os {

Kernel::Kernel(EventQueue &eq, mem::PhysicalMemory &pmem,
               const KernelConfig &config, stats::StatGroup *parent)
    : eq_(eq),
      pmem_(pmem),
      config_(config),
      rng_(config.seed),
      sleepWakes_(eq, *this, "kernel.sleepWake", kSleepWakePrio),
      statGroup_("kernel", parent),
      syscalls_(&statGroup_, "syscalls", "system calls serviced"),
      pageFaults_(&statGroup_, "pageFaults", "page faults serviced"),
      timerIrqs_(&statGroup_, "timerIrqs", "timer interrupts serviced"),
      deviceIrqs_(&statGroup_, "deviceIrqs", "device interrupts serviced"),
      ctxSwitches_(&statGroup_, "ctxSwitches", "thread context switches"),
      threadsCreated_(&statGroup_, "threadsCreated", "OS threads created"),
      badFaults_(&statGroup_, "badFaults", "unservicable faults (bugs)")
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
        t->quantumTicks = 0;
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

void
Kernel::snapSave(snap::Serializer &s) const
{
    s.u64(nextPid_);
    s.u64(nextTid_);
    for (std::uint64_t w : rng_.state())
        s.u64(w);

    s.u64(processes_.size());
    for (const auto &p : processes_) {
        s.u64(p->pid());
        s.str(p->name());
        s.b(p->exited);
        s.u64(p->exitCode);
        p->addressSpace().snapSave(s);
    }

    s.u64(threads_.size());
    for (const auto &t : threads_) {
        s.u64(t->tid());
        s.u64(t->process()->pid());
        s.u8(static_cast<std::uint8_t>(t->state()));
        snap::putContext(s, t->context());
        const auto &save = t->amsSaveArea();
        s.u64(save.size());
        for (const cpu::SequencerContext &ctx : save)
            snap::putContext(s, ctx);
        s.i64(t->cpu());
        s.u32(t->quantumTicks);
        s.u64(t->affinity.size());
        for (int cpu : t->affinity)
            s.i64(cpu);
    }

    s.u64(ready_.size());
    for (const OsThread *t : ready_)
        s.u64(t->tid());

    s.u64(current_.size());
    for (const OsThread *t : current_)
        s.u64(t ? t->tid() : 0);

    s.u64(futexQueues_.size());
    for (const auto &[key, queue] : futexQueues_) {
        s.u64(key.pid);
        s.u64(key.addr);
        s.u64(queue.size());
        for (const OsThread *t : queue)
            s.u64(t->tid());
    }

    s.u64(joiners_.size());
    for (const auto &[target, waiters] : joiners_) {
        s.u64(target);
        s.u64(waiters.size());
        for (const OsThread *t : waiters)
            s.u64(t->tid());
    }

    const auto wakes = sleepWakes_.pending();
    s.u64(wakes.size());
    for (const auto *wake : wakes) {
        s.u64(wake->data->tid());
        snap::putPending(s, wake);
    }
}

void
Kernel::snapRestore(snap::Deserializer &d)
{
    MISP_ASSERT(processes_.empty() && threads_.empty());
    nextPid_ = static_cast<Pid>(d.u64());
    nextTid_ = static_cast<Tid>(d.u64());
    std::array<std::uint64_t, 4> rng;
    for (std::uint64_t &w : rng)
        w = d.u64();
    rng_.setState(rng);

    std::uint64_t nProcs = d.u64();
    for (std::uint64_t i = 0; i < nProcs; ++i) {
        Pid pid = static_cast<Pid>(d.u64());
        std::string name = d.str();
        processes_.push_back(
            std::make_unique<Process>(pid, name, pmem_));
        Process *p = processes_.back().get();
        p->exited = d.b();
        p->exitCode = d.u64();
        p->addressSpace().snapRestore(d);
    }

    auto thread = [this](Tid tid) -> OsThread * {
        OsThread *t = threadByTid(tid);
        if (!t)
            throw snap::SnapError("kernel: unknown tid in image");
        return t;
    };

    std::uint64_t nThreads = d.u64();
    for (std::uint64_t i = 0; i < nThreads; ++i) {
        Tid tid = static_cast<Tid>(d.u64());
        Process *proc = processByPid(static_cast<Pid>(d.u64()));
        if (!proc)
            throw snap::SnapError("kernel: thread names an unknown pid");
        threads_.push_back(
            std::make_unique<OsThread>(tid, proc, 0, 0, 0));
        OsThread *t = threads_.back().get();
        proc->addThread(t);
        t->setState(static_cast<ThreadState>(d.u8()));
        t->context() = snap::getContext(d);
        auto &save = t->amsSaveArea();
        save.resize(d.u64());
        for (cpu::SequencerContext &ctx : save)
            ctx = snap::getContext(d);
        t->setCpu(static_cast<int>(d.i64()));
        t->quantumTicks = d.u32();
        t->affinity.resize(d.u64());
        for (int &cpu : t->affinity)
            cpu = static_cast<int>(d.i64());
    }

    std::uint64_t nReady = d.u64();
    for (std::uint64_t i = 0; i < nReady; ++i)
        ready_.push_back(thread(static_cast<Tid>(d.u64())));

    std::uint64_t nCpus = d.u64();
    if (nCpus != current_.size())
        throw snap::SnapError("kernel: CPU count mismatch");
    for (OsThread *&cur : current_) {
        Tid tid = static_cast<Tid>(d.u64());
        cur = tid ? thread(tid) : nullptr;
    }

    std::uint64_t nFutex = d.u64();
    for (std::uint64_t i = 0; i < nFutex; ++i) {
        FutexKey key;
        key.pid = static_cast<Pid>(d.u64());
        key.addr = d.u64();
        std::deque<OsThread *> queue;
        std::uint64_t n = d.u64();
        for (std::uint64_t k = 0; k < n; ++k)
            queue.push_back(thread(static_cast<Tid>(d.u64())));
        futexQueues_.emplace(key, std::move(queue));
    }

    std::uint64_t nJoin = d.u64();
    for (std::uint64_t i = 0; i < nJoin; ++i) {
        Tid target = static_cast<Tid>(d.u64());
        std::vector<OsThread *> waiters;
        std::uint64_t n = d.u64();
        for (std::uint64_t k = 0; k < n; ++k)
            waiters.push_back(thread(static_cast<Tid>(d.u64())));
        joiners_.emplace(target, std::move(waiters));
    }

    std::uint64_t nWakes = d.u64();
    for (std::uint64_t i = 0; i < nWakes; ++i) {
        OsThread *t = threadByTid(static_cast<Tid>(d.u64()));
        if (!t)
            throw snap::SnapError("kernel: sleep wakeup names an unknown "
                                  "tid");
        snap::getPending(d, eq_, sleepWakes_, kSleepWakePrio,
                         "kernel sleep wakeup", t);
    }
}

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
    if (!force && cur && cur->quantumTicks < config_.quantumTicks)
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
        res.priv += config_.ctxSwitch;
    }
    return res;
}

KernelResult
Kernel::syscall(int cpu, OsThread &t, Word number,
                const std::array<Word, 4> &args)
{
    ++syscalls_;
    KernelResult res;
    res.priv = config_.syscallBase;

    switch (static_cast<Sys>(number)) {
      case Sys::ExitThread: {
        finishThread(t);
        res.reschedule = true;
        res.prev = nullptr; // no context worth saving
        res.next = pickNext(cpu);
        res.priv += config_.ctxSwitch;
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
        res.priv += config_.ctxSwitch;
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
        res.priv += config_.writePerByte * len;
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
        res.priv += config_.ctxSwitch;
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
        res.priv += config_.ctxSwitch;
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
        res.priv += config_.ctxSwitch;
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
    res.priv = config_.pageFaultService;
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
    res.priv = config_.timerService;
    OsThread *cur = current_[cpu];
    if (cur)
        ++cur->quantumTicks;
    obs::trace(obs::TraceKind::KernelQuantum, 0,
               static_cast<std::uint32_t>(cpu),
               cur ? cur->tid() + 1 : 0, cur ? cur->quantumTicks : 0);
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
    res.priv = config_.deviceIrqService;
    return res;
}

Tick
Kernel::nextDeviceIrqGap()
{
    if (config_.deviceIrqMeanPeriod == 0)
        return 0;
    // Exponential inter-arrival from the deterministic RNG.
    double u = rng_.real();
    if (u < 1e-12)
        u = 1e-12;
    double gap = -std::log(u) * static_cast<double>(
        config_.deviceIrqMeanPeriod);
    if (gap < 1.0)
        gap = 1.0;
    return static_cast<Tick>(gap);
}

} // namespace misp::os
