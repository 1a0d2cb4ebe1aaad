/**
 * @file
 * The operating-system model.
 *
 * The paper's evaluation treats the OS as a generator of *serializing
 * events* — system calls, page faults, timer interrupts and other
 * interrupts (Table 1) — each of which costs a Ring-0 episode (`priv` in
 * the Eq.1 overhead model) and, on a MISP processor, a suspension of all
 * AMSs. This kernel model provides exactly those behaviours:
 *
 *  - processes and threads with a global round-robin ready queue,
 *  - preemptive scheduling driven by per-CPU timer interrupts,
 *  - demand paging via AddressSpace (compulsory page faults),
 *  - a small syscall ABI (exit/write/yield/sleep/thread/futex),
 *  - context-switch costing, including the aggregate AMS save/restore
 *    the paper notes is the one piece of extra OS support MISP needs.
 *
 * The kernel is host-modeled: it manipulates guest-visible state and
 * charges cycle costs, but its own code is not interpreted guest code.
 * CPU drivers (MispSystem / SmpSystem) call in through the entry points
 * and apply the returned scheduling decisions.
 */

#ifndef MISP_OS_KERNEL_HH
#define MISP_OS_KERNEL_HH

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "os/process.hh"
#include "sim/config_reads.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "snapshot/serialize.hh"

namespace misp::os {

/** MISA syscall numbers. */
enum class Sys : Word {
    ExitThread = 1,
    ExitProcess = 2,
    Write = 3,       ///< r0=fd, r1=buf, r2=len
    Yield = 4,
    Sleep = 5,       ///< r0=cycles
    ThreadCreate = 6,///< r0=eip, r1=esp, r2=arg -> tid
    ThreadJoin = 7,  ///< r0=tid
    FutexWait = 8,   ///< r0=addr, r1=expected -> 0 waited / 1 no-wait
    FutexWake = 9,   ///< r0=addr, r1=count -> woken
    GetTid = 10,
    Noop = 11,       ///< trap-and-return; models a trivial OS query
};

/** Ring-0 cycle-cost model and interrupt cadence. */
struct KernelConfig {
    Cycles syscallBase = 1200;   ///< trap + dispatch + return
    Cycles writePerByte = 2;     ///< added to Write
    Cycles pageFaultService = 4500; ///< VMA walk + frame alloc + map
    Cycles timerService = 2200;
    Cycles deviceIrqService = 1800;
    Cycles ctxSwitch = 3500;     ///< scheduler + address-space switch
    Tick timerPeriod = 3'000'000; ///< 1 kHz at the paper's 3.0 GHz
    unsigned quantumTicks = 2;   ///< timer ticks per scheduling quantum
    Tick deviceIrqMeanPeriod = 11'000'000; ///< 0 disables device IRQs
    std::uint64_t rngSeed = 12345; ///< device-IRQ arrival draws
    /** Keep a thread off the CPUs outside its placement list (Figure
     *  7's "ideal" placement, §5.4); when false the list binds
     *  nothing. */
    bool idealPlacement = false;
};

/** The ConfigField each KernelConfig member is tracked as: its table
 *  row (sim/config_reads.hh). */
template <class T>
consteval ConfigField
trackedField(T KernelConfig::*m)
{
    return tableField(m);
}

/** Decision returned by a kernel entry point; the CPU driver applies it. */
struct KernelResult {
    Cycles priv = 0;      ///< Ring-0 cycles to charge on this CPU
    Word retval = 0;      ///< syscall return value (into r0)
    bool reschedule = false; ///< the CPU must switch threads
    OsThread *prev = nullptr; ///< outgoing thread (save ctx unless Done)
    OsThread *next = nullptr; ///< incoming thread (nullptr = idle)
    bool fatalFault = false;  ///< unservicable fault (guest bug)
};

/** Callback interface for asynchronous wakeups. */
class KernelClient
{
  public:
    virtual ~KernelClient() = default;

    /** A thread became ready and @p cpu is idle: the driver should call
     *  pickNext() and load the result. */
    virtual void cpuWake(int cpu) = 0;
};

/** The OS model. */
class Kernel
{
  public:
    /** Queue priority of a Sys::Sleep wakeup (a restored image must
     *  carry exactly this one). */
    static constexpr int kSleepWakePrio = Event::kPrioDefault;

    /** @p reads records the config fields the kernel uses (see
     *  sim/config_reads.hh). */
    Kernel(EventQueue &eq, mem::PhysicalMemory &pmem,
           const KernelConfig &config, ConfigReads &reads,
           stats::StatGroup *parent);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** The whole config, unrecorded: for tests and the snapshot
     *  archive. The model reads a field through knob(). */
    const KernelConfig &config() const { return config_; }

    /** Config member @p Member, recorded as read by this machine. */
    template <auto Member>
    auto
    knob() const
    {
        return readConfig<Member>(config_, reads_);
    }

    void setClient(KernelClient *client) { client_ = client; }

    /** Register a schedulable CPU (an OMS or SMP core). @return id. */
    int addCpu();
    unsigned numCpus() const { return static_cast<unsigned>(current_.size()); }

    // ---- process / thread management ----------------------------------
    Process *createProcess(const std::string &name);
    /** Create a thread and enqueue it ready. Stack must be carved by the
     *  caller (runtime or loader). */
    OsThread *createThread(Process *proc, VAddr eip, VAddr esp, Word arg);

    /** Pop the next ready thread for @p cpu (nullptr = idle). Marks it
     *  Running on @p cpu. */
    OsThread *pickNext(int cpu);

    OsThread *current(int cpu) const { return current_[cpu]; }

    /** True while any thread of @p proc has not exited. */
    bool processAlive(const Process *proc) const;

    /** Lookup by stable identity (snapshot restore, harness targets). */
    Process *processByPid(Pid pid) const;
    OsThread *threadByTid(Tid tid) const;

    // ---- kernel entry points (driver calls these) ----------------------
    KernelResult syscall(int cpu, OsThread &t, Word number,
                         const std::array<Word, 4> &args);
    KernelResult pageFault(int cpu, OsThread &t, VAddr va, bool write);
    KernelResult timerTick(int cpu);
    KernelResult deviceIrq(int cpu);

    /** Next interval until a device IRQ (exponential, deterministic). */
    Tick nextDeviceIrqGap();
    /** Seed rng_ from `kernel_seed`, once, before its first use. */
    void seedRng();

    /** Invoked when a process fully exits (harness completion hook). */
    void
    setProcessExitHook(std::function<void(Process *)> hook)
    {
        processExitHook_ = std::move(hook);
    }

    // ---- accounting -----------------------------------------------------
    std::uint64_t contextSwitches() const
    {
        return static_cast<std::uint64_t>(ctxSwitches_.value());
    }

    stats::StatGroup &statGroup() { return statGroup_; }

    // ---- snapshot -------------------------------------------------------
    /** Snapshot processes (including their address spaces and page
     *  tables), threads, the scheduler queues, futex/join wait queues,
     *  the device-IRQ RNG and the pending sleep wakeups. */
    template <class Ar>
    void archive(Ar &a);

    /** How a thread / process pointer travels in an image: as its tid
     *  / pid (0 = none). */
    auto
    threadIds() const
    {
        return snap::Lookup{
            "tid", "thread", &OsThread::tid, [this](std::uint64_t tid) {
                return std::in_range<Tid>(tid) ? threadByTid(Tid(tid))
                                               : nullptr;
            }};
    }
    auto
    processIds() const
    {
        return snap::Lookup{
            "pid", "process", &Process::pid, [this](std::uint64_t pid) {
                return std::in_range<Pid>(pid) ? processByPid(Pid(pid))
                                               : nullptr;
            }};
    }

  private:
    struct FutexKey {
        Pid pid;
        VAddr addr;
        auto operator<=>(const FutexKey &) const = default;
    };

    void makeReady(OsThread *t);
    /** Whether @p t may run on @p cpu: inside its affinity, and inside
     *  its placement unless the policy lets it stray. The policy knob
     *  is read only when a placement excludes @p cpu. */
    bool allowed(const OsThread &t, int cpu) const;
    void wakeIdleCpu();
    KernelResult scheduleDecision(int cpu, bool force);
    void finishThread(OsThread &t);
    /** A Sys::Sleep wakeup of @p t arrives. */
    void sleepWake(OsThread *const &t);

    EventQueue &eq_;
    mem::PhysicalMemory &pmem_;
    KernelConfig config_;            ///< snap: config
    ConfigReads &reads_;
    KernelClient *client_ = nullptr; ///< snap: config — wired at build
    /** Device-IRQ arrival draws; seeded from `kernel_seed` at the first
     *  draw (seedRng), so a machine that draws none never reads it. */
    Rng rng_;
    bool rngSeeded_ = false;

    Pid nextPid_ = 1;
    Tid nextTid_ = 1;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<std::unique_ptr<OsThread>> threads_;

    /** FIFO of runnable threads, a vector: it allocates only once a
     *  thread is first made ready (a deque allocates when built). */
    std::vector<OsThread *> ready_;
    std::vector<OsThread *> current_;

    std::map<FutexKey, std::deque<OsThread *>> futexQueues_;
    std::map<Tid, std::vector<OsThread *>> joiners_;
    EventPool<Kernel, OsThread *, &Kernel::sleepWake> sleepWakes_;
    /** snap: config — harness completion wiring, re-installed by
     *  the same build path that constructs the restore target. */
    std::function<void(Process *)> processExitHook_;

    stats::StatGroup statGroup_;
    stats::Scalar syscalls_;
    stats::Scalar pageFaults_;
    stats::Scalar timerIrqs_;
    stats::Scalar deviceIrqs_;
    stats::Scalar ctxSwitches_;
    stats::Scalar threadsCreated_;
    stats::Scalar badFaults_; ///< unservicable faults (bugs)
};

} // namespace misp::os

#endif // MISP_OS_KERNEL_HH
