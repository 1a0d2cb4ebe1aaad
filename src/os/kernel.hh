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
#include <vector>

#include "os/process.hh"
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
    std::uint64_t seed = 12345;
};

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
class Kernel : public snap::Saveable
{
  public:
    /** Queue priority of a Sys::Sleep wakeup (a restored image must
     *  carry exactly this one). */
    static constexpr int kSleepWakePrio = Event::kPrioDefault;

    Kernel(EventQueue &eq, mem::PhysicalMemory &pmem,
           const KernelConfig &config, stats::StatGroup *parent);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    const KernelConfig &config() const { return config_; }

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
     *  and the device-IRQ RNG. Pending sleep wakeups are tagged events
     *  restored by snapRestoreSleepWake(). */
    void snapSave(snap::Serializer &s) const override;
    void snapRestore(snap::Deserializer &d) override;

    /** Re-create one pending Sys::Sleep wakeup with its original
     *  delivery tick and queue insertion sequence. */
    void snapRestoreSleepWake(Tid tid, Tick when, std::uint64_t seq);

  private:
    struct FutexKey {
        Pid pid;
        VAddr addr;
        auto operator<=>(const FutexKey &) const = default;
    };

    void makeReady(OsThread *t);
    void wakeIdleCpu();
    KernelResult scheduleDecision(int cpu, bool force);
    void finishThread(OsThread &t);

    EventQueue &eq_;
    mem::PhysicalMemory &pmem_;
    KernelConfig config_;            ///< snap: config
    KernelClient *client_ = nullptr; ///< snap: config — wired at build
    Rng rng_;

    Pid nextPid_ = 1;
    Tid nextTid_ = 1;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<std::unique_ptr<OsThread>> threads_;

    std::deque<OsThread *> ready_;
    std::vector<OsThread *> current_;

    std::map<FutexKey, std::deque<OsThread *>> futexQueues_;
    std::map<Tid, std::vector<OsThread *>> joiners_;
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
    stats::Scalar badFaults_;
};

} // namespace misp::os

#endif // MISP_OS_KERNEL_HH
