/**
 * @file
 * The inter-sequencer signaling fabric of one MISP processor.
 *
 * Carries every signal class the architecture defines (§2.4):
 * user-level SIGNAL continuations, proxy-execution requests and
 * completions, and the firmware-level suspend/resume used by the
 * serialization engine. Each delivery costs `signalCycles` — the
 * parameter Figure 5 sweeps.
 *
 * A delivery in flight is a pooled event holding a Packet that says what
 * arrives where, so the fabric archives its pending deliveries itself.
 */

#ifndef MISP_MISP_SIGNAL_FABRIC_HH
#define MISP_MISP_SIGNAL_FABRIC_HH

#include <vector>

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

    /** What a delivery does when it arrives. */
    enum class Delivery : std::uint8_t {
        Signal,       ///< user-level SIGNAL continuation
        ProxyRequest, ///< proxy-execution request notification (OMS)
        Suspend,      ///< serialization: stop an AMS
        Resume,       ///< serialization: restart an AMS
        ProxyDone,    ///< proxy completion: the serviced AMS context
        NumKinds
    };

    /** @p ownerCpu is the kernel CPU slot of the owning processor's
     *  OMS, recorded in signal trace events (-1 for a bare fabric). */
    SignalFabric(EventQueue &eq, Cycles signalCycles,
                 stats::StatGroup *parent, int ownerCpu = -1);

    Cycles signalCycles() const { return signalCycles_; }

    /** Deliver a @p kind signal to @p dst after the signal latency:
     *  @p payload for Signal and ProxyRequest, the @p serviced AMS
     *  context for ProxyDone (the AMS resumes from it if it is still
     *  waiting for the proxy). */
    void send(Delivery kind, cpu::Sequencer &dst,
              const cpu::SignalPayload &payload = {},
              const cpu::SequencerContext &serviced = {});

    std::uint64_t deliveries() const
    {
        return static_cast<std::uint64_t>(deliveries_.value());
    }

    /** Deliveries of @p kind sent and not yet arrived. */
    std::size_t inFlight(Delivery kind) const;

    // ---- snapshot -------------------------------------------------------
    /** The pending deliveries, each with its target SID, its data and
     *  its original (when, seq, priority). */
    void snapSave(snap::Serializer &s) const;
    /** @p bySid maps a SID to the owning processor's sequencer. */
    void snapRestore(snap::Deserializer &d,
                     const std::vector<cpu::Sequencer *> &bySid);

  private:
    /** One delivery in flight. */
    struct Packet {
        Delivery kind = Delivery::Signal;
        cpu::Sequencer *dst = nullptr;
        cpu::SignalPayload payload;     ///< Signal, ProxyRequest
        cpu::SequencerContext serviced; ///< ProxyDone
    };

    /** A delivery's arrival at its target. */
    void arrive(const Packet &packet);

    EventQueue &eq_;
    Cycles signalCycles_; ///< snap: config
    int ownerCpu_;        ///< snap: config
    EventPool<SignalFabric, Packet, &SignalFabric::arrive> pool_;

    stats::StatGroup statGroup_;
    stats::Scalar deliveries_;
};

} // namespace misp::arch

#endif // MISP_MISP_SIGNAL_FABRIC_HH
