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
 * Each config struct binds its members to fields with a consteval
 * trackedField() overload next to its declaration; reading a member
 * that has no binding does not compile. misplint's config-raw-read
 * rule keeps raw member reads of the config structs out of the
 * simulated dirs (the snapshot archive, which reads every field,
 * excepted).
 */

#ifndef MISP_SIM_CONFIG_READS_HH
#define MISP_SIM_CONFIG_READS_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace misp {

/** The tracked fields, in bit order: enumerator and name (the spec key
 *  where a [machine] knob sets it). */
#define MISP_CONFIG_FIELDS(X)                                            \
    X(Processors,          "processors")                                 \
    X(PhysFrames,          "phys_frames")                                \
    X(SignalCycles,        "signal_cycles")                              \
    X(ContextXferCycles,   "context_xfer_cycles")                        \
    X(Serialization,       "serialization")                              \
    X(SliceLimit,          "slice_limit")                                \
    X(SyscallBase,         "syscall_base")                               \
    X(WritePerByte,        "write_per_byte")                             \
    X(PageFaultService,    "page_fault_service")                         \
    X(TimerService,        "timer_service")                              \
    X(DeviceIrqService,    "device_irq_service")                         \
    X(CtxSwitch,           "ctx_switch")                                 \
    X(TimerPeriod,         "timer_period")                               \
    X(QuantumTicks,        "quantum_ticks")                              \
    X(DeviceIrqMeanPeriod, "device_irq_mean_period")                     \
    X(KernelSeed,          "kernel_seed")

enum class ConfigField : std::uint8_t {
#define MISP_CONFIG_FIELD_ENUM(en, name) en,
    MISP_CONFIG_FIELDS(MISP_CONFIG_FIELD_ENUM)
#undef MISP_CONFIG_FIELD_ENUM
    NumFields
};

inline constexpr const char *kConfigFieldNames[] = {
#define MISP_CONFIG_FIELD_NAME(en, name) name,
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
 *  (false when their types differ): the comparison trackedField()
 *  bindings are written with. */
template <class A, class B, class C>
consteval bool
sameMember(A C::*a, B C::*b)
{
    if constexpr (std::is_same_v<A, B>)
        return a == b;
    else
        return false;
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
