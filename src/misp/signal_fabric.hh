/**
 * @file
 * The inter-sequencer signaling fabric of one MISP processor.
 *
 * Carries every signal class the architecture defines (§2.4):
 * user-level SIGNAL continuations, proxy-execution requests and
 * completions, and the firmware-level suspend/resume used by the
 * serialization engine. Each delivery costs `signalCycles` — the
 * parameter Figure 5 sweeps.
 */

#ifndef MISP_MISP_SIGNAL_FABRIC_HH
#define MISP_MISP_SIGNAL_FABRIC_HH

#include <functional>

#include "cpu/sequencer.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misp::arch {

/** Point-to-point signal delivery with a uniform latency model. */
class SignalFabric
{
  public:
    /** Queue priority of every fabric delivery (a restored image must
     *  carry exactly this one). */
    static constexpr int kDeliveryPrio = Event::kPrioInterrupt;

    /** @p ownerCpu is the kernel CPU slot of the owning processor's
     *  OMS; it keys the snapshot tags on signal-delivery events so a
     *  pending delivery can be re-targeted after a machine-state
     *  restore. -1 (tests driving a bare fabric) disables tagging. */
    SignalFabric(EventQueue &eq, Cycles signalCycles,
                 stats::StatGroup *parent, int ownerCpu = -1);

    Cycles signalCycles() const { return signalCycles_; }
    void setSignalCycles(Cycles c) { signalCycles_ = c; }

    /** Deliver a user-level SIGNAL continuation to @p dst. */
    void sendSignal(cpu::Sequencer &dst, const cpu::SignalPayload &payload);

    /** Deliver a proxy-execution request notification to the OMS. */
    void sendProxyRequest(cpu::Sequencer &oms,
                          const cpu::SignalPayload &payload);

    /** Deliver an arbitrary action after the signal latency; used for
     *  firmware-level suspend/resume and proxy completion, which carry
     *  side effects rather than continuations. */
    void sendAction(const std::string &name, std::function<void()> action);

    std::uint64_t deliveries() const
    {
        return static_cast<std::uint64_t>(deliveries_.value());
    }

  private:
    EventQueue &eq_;
    Cycles signalCycles_;
    int ownerCpu_;

    stats::StatGroup statGroup_;
    stats::Scalar deliveries_;
};

} // namespace misp::arch

#endif // MISP_MISP_SIGNAL_FABRIC_HH
