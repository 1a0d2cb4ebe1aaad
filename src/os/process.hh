/**
 * @file
 * OS-level process and thread objects.
 *
 * An OsThread is the unit the OS schedules onto a CPU (an OMS, or an SMP
 * core). For MISP, one OsThread additionally carries the aggregate save
 * area for the cumulative AMS states — "the primary, if not the only,
 * additional OS support required of a legacy OS" (§2.2).
 */

#ifndef MISP_OS_PROCESS_HH
#define MISP_OS_PROCESS_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/sequencer.hh"
#include "mem/address_space.hh"
#include "sim/types.hh"

namespace misp::os {

class Process;

/** Scheduling state of an OS thread. */
enum class ThreadState : std::uint8_t {
    Ready,   ///< runnable, waiting for a CPU
    Running, ///< loaded on a CPU
    Blocked, ///< sleeping / futex / join
    Done,    ///< exited
};

/** One OS-visible thread. */
class OsThread
{
  public:
    OsThread(Tid tid, Process *process, VAddr eip, VAddr esp, Word arg)
        : tid_(tid), process_(process)
    {
        ctx_.eip = eip;
        ctx_.sp() = esp;
        // Thread argument convention: r0 (first argument register) and
        // r2 (matching the SIGNAL continuation payload convention).
        ctx_.regs[0] = arg;
        ctx_.regs[2] = arg;
    }

    Tid tid() const { return tid_; }
    Process *process() const { return process_; }

    ThreadState state() const { return state_; }
    void setState(ThreadState s) { state_ = s; }

    /** Saved OMS-context while not running. */
    cpu::SequencerContext &context() { return ctx_; }

    /** Aggregate AMS save area (§2.2). Sized/filled by the MISP
     *  processor model on context switch; empty for plain threads. */
    std::vector<cpu::SequencerContext> &amsSaveArea() { return amsSave_; }

    /** Opaque per-thread slot for the runtime that owns this thread's
     *  shreds (set by ShredRuntime). */
    void *runtimeData() const { return runtimeData_; }
    void setRuntimeData(void *p) { runtimeData_ = p; }

    /** CPU this thread is currently loaded on (valid when Running). */
    int cpu() const { return cpu_; }
    void setCpu(int c) { cpu_ = c; }

    /** Accumulated quantum usage since last reschedule, in timer ticks. */
    unsigned quantumUsed = 0;

    /** CPU affinity: empty = any CPU. The paper notes a thread (and its
     *  shreds) "should not migrate to a MISP processor that does not
     *  have the proper number of AMSs" (§5.4); harnesses pin shredded
     *  threads to adequate processors. */
    std::vector<int> affinity;

    bool
    allowedOn(int cpu) const
    {
        if (affinity.empty())
            return true;
        for (int c : affinity) {
            if (c == cpu)
                return true;
        }
        return false;
    }

  private:
    Tid tid_;
    Process *process_;
    ThreadState state_ = ThreadState::Ready;
    cpu::SequencerContext ctx_;
    std::vector<cpu::SequencerContext> amsSave_;
    void *runtimeData_ = nullptr;
    int cpu_ = -1;
};

/** One OS process: an address space plus its threads. */
class Process
{
  public:
    Process(Pid pid, std::string name, mem::PhysicalMemory &pmem)
        : pid_(pid), name_(std::move(name)),
          as_(std::make_unique<mem::AddressSpace>(name_, pmem))
    {}

    Pid pid() const { return pid_; }
    const std::string &name() const { return name_; }
    mem::AddressSpace &addressSpace() { return *as_; }

    const std::vector<OsThread *> &threads() const { return threads_; }
    void addThread(OsThread *t) { threads_.push_back(t); }

    bool
    allThreadsDone() const
    {
        for (const OsThread *t : threads_) {
            if (t->state() != ThreadState::Done)
                return false;
        }
        return true;
    }

    /** Exit flag; once set, remaining threads are reaped. */
    bool exited = false;
    Word exitCode = 0;

  private:
    Pid pid_;
    std::string name_;
    std::unique_ptr<mem::AddressSpace> as_;
    std::vector<OsThread *> threads_;
};

} // namespace misp::os

#endif // MISP_OS_PROCESS_HH
