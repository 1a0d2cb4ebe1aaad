/**
 * @file
 * A machine's config read set: which machine-config fields a run
 * actually used.
 *
 * Every SystemConfig / MispConfig / KernelConfig field the model uses
 * is read through readConfig() at its use site, which sets the field's
 * bit in the machine's ConfigReads. The run is a deterministic function
 * of its workloads, its run knobs and the values it read, so two runs
 * that agree on those agree bit for bit: the scenario runner reuses a
 * finished point for any later point whose config matches it on every
 * field the first one read (driver/runner.cc). Marking a field read
 * when it was not is safe (a lost reuse); missing a real read is not.
 *
 * MISP_CONFIG_FIELDS below is the one declaration of the tracked
 * fields. Each config struct's trackedField() overload binds its
 * members through the table (tableField), so reading a member that no
 * row names does not compile. misplint's config-raw-read rule keeps
 * raw member reads of the config structs out of the simulated dirs
 * (the snapshot archive, which reads every field, excepted).
 */

#ifndef MISP_SIM_CONFIG_READS_HH
#define MISP_SIM_CONFIG_READS_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace misp {

/** How a [machine] section sets a tracked field. */
enum class KnobKind : std::uint8_t {
    Fixed,   ///< no spec key sets it
    Count,   ///< an unsigned integer of the member's width
    Policy,  ///< an arch::SerializationPolicy name
    AmsList, ///< a comma list of per-processor AMS counts
    Flag,    ///< a boolean
};

/**
 * The tracked fields, in bit order, one row each:
 *
 *   X(enumerator, name, owner, member, kind, expect)
 *
 * The owner is the config struct that holds the field (named from
 * namespace misp) and the member is its data member. The name is the
 * [machine] spec key unless the kind is Fixed: the six kernel costs
 * are no spec key, so their names only label the field (test
 * failures, read-mask dumps). A bad value for a knob is diagnosed as
 * "<name>: expected <expect>, got '<value>'".
 *
 * The rows are expanded where their owners are visible: the
 * trackedField() bindings (tableField below; misp_system.hh checks
 * each row's owner), the path map (harness::visitConfigField) and the
 * [machine] parser (driver::MachineSpec::apply). The snapshot archive
 * names every field by hand: it is the image layout.
 */
#define MISP_CONFIG_FIELDS(X)                                            \
    X(Processors, "processors", arch::SystemConfig, amsPerProcessor,      \
      AmsList, "a comma list of AMS counts")                             \
    X(PhysFrames, "phys_frames", arch::SystemConfig, physFrames, Count,   \
      "a frame count")                                                   \
    X(SignalCycles, "signal_cycles", arch::MispConfig, signalCycles,      \
      Count, "a cycle count")                                            \
    X(ContextXferCycles, "context_xfer_cycles", arch::MispConfig,         \
      contextXferCycles, Count, "a cycle count")                         \
    X(Serialization, "serialization", arch::MispConfig, serialization,    \
      Policy, "'suspend_all' or 'speculative_monitor'")                  \
    X(SliceLimit, "slice_limit", arch::MispConfig, sliceLimit, Count,     \
      "an integer")                                                      \
    X(SyscallBase, "syscall_base", os::KernelConfig, syscallBase, Fixed,  \
      "")                                                                \
    X(WritePerByte, "write_per_byte", os::KernelConfig, writePerByte,     \
      Fixed, "")                                                         \
    X(PageFaultService, "page_fault_service", os::KernelConfig,           \
      pageFaultService, Fixed, "")                                       \
    X(TimerService, "timer_service", os::KernelConfig, timerService,      \
      Fixed, "")                                                         \
    X(DeviceIrqService, "device_irq_service", os::KernelConfig,           \
      deviceIrqService, Fixed, "")                                       \
    X(CtxSwitch, "ctx_switch", os::KernelConfig, ctxSwitch, Fixed, "")    \
    X(TimerPeriod, "timer_period", os::KernelConfig, timerPeriod, Count,  \
      "a tick count")                                                    \
    X(QuantumTicks, "quantum_ticks", os::KernelConfig, quantumTicks,      \
      Count, "an integer")                                               \
    X(DeviceIrqMeanPeriod, "device_irq_mean_period", os::KernelConfig,    \
      deviceIrqMeanPeriod, Count, "a tick count (0 disables device IRQs)") \
    X(KernelSeed, "kernel_seed", os::KernelConfig, rngSeed, Count,        \
      "an integer seed")                                                 \
    X(IdealPlacement, "ideal_placement", os::KernelConfig, idealPlacement, \
      Flag, "a boolean")

enum class ConfigField : std::uint8_t {
#define MISP_CONFIG_FIELD_ENUM(en, name, ...) en,
    MISP_CONFIG_FIELDS(MISP_CONFIG_FIELD_ENUM)
#undef MISP_CONFIG_FIELD_ENUM
    NumFields
};

inline constexpr const char *kConfigFieldNames[] = {
#define MISP_CONFIG_FIELD_NAME(en, name, ...) name,
    MISP_CONFIG_FIELDS(MISP_CONFIG_FIELD_NAME)
#undef MISP_CONFIG_FIELD_NAME
};
inline constexpr std::size_t kNumConfigFields =
    static_cast<std::size_t>(ConfigField::NumFields);

/** A set of ConfigFields, one bit each in field order. */
using ConfigMask = std::uint32_t;
static_assert(kNumConfigFields <= 32, "ConfigMask has 32 bits");

constexpr ConfigMask
configBit(ConfigField f)
{
    return ConfigMask{1} << static_cast<unsigned>(f);
}

inline constexpr ConfigMask kAllConfigFields =
    (ConfigMask{1} << kNumConfigFields) - 1;

/** The fields one machine has read so far. */
class ConfigReads
{
  public:
    void mark(ConfigField f) { mask_ |= configBit(f); }
    /** Every field: a reader that consumes the whole config (the
     *  snapshot archive). */
    void markAll() { mask_ = kAllConfigFields; }
    ConfigMask mask() const { return mask_; }

  private:
    ConfigMask mask_ = 0;
};

/** Whether members @p a and @p b of one struct are the same member
 *  (false when their types differ): the comparison the trackedField()
 *  bindings are made with. */
template <class A, class B, class C>
consteval bool
sameMember(A C::*a, B C::*b)
{
    if constexpr (std::is_same_v<A, B>)
        return a == b;
    else
        return false;
}

/** The ConfigField whose row names member @p m of @p Owner: the
 *  binding each config struct's trackedField() overload returns. Rows
 *  match by member name; a member no row names does not compile. */
template <class Owner, class T>
consteval ConfigField
tableField(T Owner::*m)
{
#define MISP_CONFIG_FIELD_BIND(en, name, owner, member, ...)              \
    if constexpr (requires { &Owner::member; })                          \
        if (sameMember(m, &Owner::member))                               \
            return ConfigField::en;
    MISP_CONFIG_FIELDS(MISP_CONFIG_FIELD_BIND)
#undef MISP_CONFIG_FIELD_BIND
    throw "config member without a MISP_CONFIG_FIELDS row";
}

/** The one tracked accessor: @p config's @p Member, recorded in
 *  @p reads. @p Member must have a trackedField() binding. */
template <auto Member, class Config>
const auto &
readConfig(const Config &config, ConfigReads &reads)
{
    constexpr ConfigField field = trackedField(Member);
    reads.mark(field);
    return config.*Member;
}

/**
 * A config value a component keeps from construction and uses later
 * (a sequencer's slice limit, the fabric's signal cost): use() records
 * the read where the value is used, so building the component reads
 * nothing. A plain value (a bare component's own setting) records
 * nothing.
 */
template <class T>
class TrackedValue
{
  public:
    TrackedValue(T value = T{}) : value_(value) {}
    TrackedValue(T value, ConfigField field, ConfigReads &reads)
        : value_(value), field_(field), reads_(&reads)
    {}

    T
    use() const
    {
        if (reads_)
            reads_->mark(field_);
        return value_;
    }

  private:
    T value_;
    ConfigField field_ = ConfigField::NumFields;
    ConfigReads *reads_ = nullptr;
};

/** @p config's @p Member, to be recorded in @p reads at each use. */
template <auto Member, class Config>
auto
deferConfig(const Config &config, ConfigReads &reads)
{
    constexpr ConfigField field = trackedField(Member);
    return TrackedValue(config.*Member, field, reads);
}

} // namespace misp

#endif // MISP_SIM_CONFIG_READS_HH
