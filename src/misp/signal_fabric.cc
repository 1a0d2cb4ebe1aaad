#include "signal_fabric.hh"

#include "obs/trace.hh"
#include "snapshot/state_io.hh"

namespace misp::arch {

using cpu::SeqState;

SignalFabric::SignalFabric(EventQueue &eq, Cycles signalCycles,
                           stats::StatGroup *parent, int ownerCpu)
    : eq_(eq),
      signalCycles_(signalCycles),
      ownerCpu_(ownerCpu),
      pool_(eq, *this, "fabric.delivery", kDeliveryPrio),
      statGroup_("fabric", parent),
      deliveries_(&statGroup_, "deliveries")
{}

void
SignalFabric::send(Delivery kind, cpu::Sequencer &dst,
                   const cpu::SignalPayload &payload,
                   const cpu::SequencerContext &serviced)
{
    const std::uint32_t cpu =
        ownerCpu_ < 0 ? 0 : static_cast<std::uint32_t>(ownerCpu_);
    if (kind == Delivery::Signal)
        obs::trace(obs::TraceKind::SignalSend, dst.sid(), cpu, payload.eip,
                   payload.arg);
    else if (kind == Delivery::ProxyRequest)
        obs::trace(obs::TraceKind::ProxySend, dst.sid(), cpu, payload.arg);
    ++deliveries_;
    pool_.schedule(eq_.curTick() + signalCycles_,
                   {kind, &dst, payload, serviced});
}

std::size_t
SignalFabric::inFlight(Delivery kind) const
{
    std::size_t n = 0;
    for (const auto *ev : pool_.pending())
        n += ev->data.kind == kind;
    return n;
}

void
SignalFabric::arrive(const Packet &packet)
{
    cpu::Sequencer *dst = packet.dst;
    switch (packet.kind) {
      case Delivery::Signal:
        dst->deliverSignal(packet.payload);
        break;
      case Delivery::ProxyRequest:
        dst->deliverProxyRequest(packet.payload);
        break;
      case Delivery::Suspend:
        dst->suspend();
        break;
      case Delivery::Resume:
        dst->resumeFromSerialization();
        break;
      case Delivery::ProxyDone:
        // If the thread was switched away mid-proxy (guarded against,
        // but kept safe), the serviced context is already in the save
        // area and will resume on reload.
        if (dst->state() == SeqState::WaitingProxy) {
            dst->restoreContext(packet.serviced);
            dst->resume(/*retryFault=*/true);
        }
        break;
      case Delivery::NumKinds:
        break;
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

template <class Ar>
void
SignalFabric::archive(Ar &a, const std::vector<cpu::Sequencer *> &bySid)
{
    const snap::Lookup sids{
        "sid", "sequencer", &cpu::Sequencer::sid,
        [&bySid](std::uint64_t sid) {
            return sid < bySid.size() ? bySid[sid] : nullptr;
        }};
    snap::archivePending(
        a, eq_, pool_, kDeliveryPrio, 1 + 8 + snap::kPayloadBytes,
        "fabric delivery", [&](Packet &p) {
            a.enumByte(p.kind, static_cast<std::size_t>(Delivery::NumKinds),
                       "delivery kind");
            a.ref(p.dst, sids, "fabric delivery");
            if constexpr (Ar::kLoading) {
                // Proxy requests go to the OMS (sid 0); the
                // serialization and proxy-completion signals only ever
                // to an AMS.
                const bool toOms = p.dst->sid() == 0;
                if (p.kind != Delivery::Signal &&
                    (p.kind == Delivery::ProxyRequest) != toOms)
                    throw snap::SnapError(
                        "image: delivery kind " +
                        std::to_string(static_cast<int>(p.kind)) +
                        " cannot target sid " +
                        std::to_string(p.dst->sid()));
            }
            if (p.kind == Delivery::ProxyDone)
                snap::archive(a, p.serviced);
            else
                snap::archive(a, p.payload);
        });
}

MISP_SNAP_ARCHIVE(SignalFabric, const std::vector<cpu::Sequencer *> &);

} // namespace misp::arch
