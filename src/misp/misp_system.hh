/**
 * @file
 * A complete simulated machine built from MISP processors (§2.6).
 *
 * "Like traditional processors, multiple MISP processors can be combined
 * to form a multiprocessor system. The OS sees only the OMSs and
 * schedules threads to run on each."
 *
 * A MispSystem owns the event queue, physical memory, the kernel model,
 * and one or more MispProcessors. The per-processor AMS count vector
 * expresses all of Figure 6's configurations:
 *
 *   1x8     -> {7}
 *   2x4     -> {3, 3}
 *   4x2     -> {1, 1, 1, 1}
 *   1x4+4   -> {3, 0, 0, 0, 0}
 */

#ifndef MISP_MISP_MISP_SYSTEM_HH
#define MISP_MISP_MISP_SYSTEM_HH

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "misp/misp_processor.hh"
#include "os/kernel.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misp::arch {

/** Whole-machine configuration. */
struct SystemConfig {
    /** AMS count per MISP processor; size = number of processors. */
    std::vector<unsigned> amsPerProcessor{7};
    MispConfig misp;       ///< shared per-processor knobs (AMS count ignored)
    os::KernelConfig kernel;
    std::uint64_t physFrames = 1 << 18; ///< 1 GiB of simulated DRAM

    /** Most processors, and most AMSs on one processor, a machine may
     *  have: far above the paper's machines, and small enough that
     *  building one cannot exhaust the host. */
    static constexpr std::size_t kMaxSequencers = 256;

    /** Shorthand constructors for the paper's configurations. */
    static SystemConfig uniprocessor(unsigned numAms = 7);
    static SystemConfig mp(const std::vector<unsigned> &amsCounts);

    /** Whether this machine can be built and run: 1..kMaxSequencers
     *  processors of at most kMaxSequencers AMSs each, at least one
     *  physical frame, a nonzero slice limit (else no instruction
     *  retires) and a nonzero timer period (else the timer re-fires
     *  at one tick forever). False + @p err naming the field. */
    bool validate(std::string *err) const;
};

/** The ConfigField each tracked SystemConfig member is: its table
 *  row (sim/config_reads.hh). The misp and kernel members bind their
 *  own (misp_config.hh, os/kernel.hh). */
template <class T>
consteval ConfigField
trackedField(T SystemConfig::*m)
{
    return tableField(m);
}

/** The part of machine config @p c (const or not) that is a @p Part:
 *  @p c itself, its misp knobs or its kernel knobs. A table row's
 *  owner column names one. */
template <class Part, class Config>
constexpr auto &
configPart(Config &c)
{
    if constexpr (std::is_same_v<Part, MispConfig>)
        return c.misp;
    else if constexpr (std::is_same_v<Part, os::KernelConfig>)
        return c.kernel;
    else {
        static_assert(std::is_same_v<Part, SystemConfig>);
        return c;
    }
}

// tableField() matches rows by member name; each row must bind the
// member of the owner it names.
#define MISP_CONFIG_FIELD_OWNED(en, name, owner, member, ...)             \
    static_assert(trackedField(&owner::member) == ConfigField::en,        \
                  #owner "::" #member " binds another row");
MISP_CONFIG_FIELDS(MISP_CONFIG_FIELD_OWNED)
#undef MISP_CONFIG_FIELD_OWNED

/** The simulated machine. */
class MispSystem : public os::KernelClient
{
  public:
    explicit MispSystem(const SystemConfig &config);
    ~MispSystem() override;

    MispSystem(const MispSystem &) = delete;
    MispSystem &operator=(const MispSystem &) = delete;

    EventQueue &eventQueue() { return eq_; }
    mem::PhysicalMemory &physMem() { return *pmem_; }
    os::Kernel &kernel() { return *kernel_; }
    stats::StatGroup &rootStats() { return root_; }
    /** The whole config, unrecorded: for the snapshot archive, which
     *  records every field read. */
    const SystemConfig &config() const { return config_; }

    /** The config fields this machine has read so far (see
     *  sim/config_reads.hh). */
    ConfigReads &configReads() { return reads_; }

    unsigned numProcessors() const
    {
        return static_cast<unsigned>(procs_.size());
    }
    MispProcessor &processor(unsigned i) { return *procs_[i]; }

    /** Processor whose OMS is kernel CPU @p cpu (nullptr if none). */
    MispProcessor *processorForCpu(int cpu);

    /** Attach a runtime to every processor. */
    void attachRuntime(RtHandler *rt);

    /** Re-select the host execution engine machine-wide (see
     *  MispProcessor::setEngine; used to apply the restoring run's
     *  engine choice after a snapshot restore). */
    void
    setEngine(cpu::Engine engine)
    {
        config_.misp.engine = engine;
        for (auto &p : procs_)
            p->setEngine(engine);
    }

    /** Kick off scheduling: assign ready threads to idle OMSs and start
     *  interrupt delivery. Call once after creating initial threads. */
    void start();

    /** Run the simulation until the event queue drains or @p maxTicks
     *  elapse. @return final tick. */
    Tick run(Tick maxTicks = kMaxTick);

    /** Stop interrupt generation (lets the queue drain at the end of an
     *  experiment). */
    void quiesce();

    // ---- KernelClient ---------------------------------------------------
    void cpuWake(int cpu) override;

  private:
    SystemConfig config_;
    ConfigReads reads_;
    EventQueue eq_;
    stats::StatGroup root_;
    std::unique_ptr<mem::PhysicalMemory> pmem_;
    std::unique_ptr<os::Kernel> kernel_;
    std::vector<std::unique_ptr<MispProcessor>> procs_;
};

} // namespace misp::arch

#endif // MISP_MISP_MISP_SYSTEM_HH
