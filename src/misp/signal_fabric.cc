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
      deliveries_(&statGroup_, "deliveries", "signals delivered")
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

void
SignalFabric::snapSave(snap::Serializer &s) const
{
    const auto pending = pool_.pending();
    s.u64(pending.size());
    for (const auto *ev : pending) {
        const Packet &p = ev->data;
        s.u8(static_cast<std::uint8_t>(p.kind));
        s.u64(p.dst->sid());
        if (p.kind == Delivery::ProxyDone)
            snap::putContext(s, p.serviced);
        else
            snap::putPayload(s, p.payload);
        snap::putPending(s, ev);
    }
}

void
SignalFabric::snapRestore(snap::Deserializer &d,
                          const std::vector<cpu::Sequencer *> &bySid)
{
    const std::uint64_t count = d.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint8_t kindByte = d.u8();
        if (kindByte >= static_cast<std::uint8_t>(Delivery::NumKinds))
            throw snap::SnapError("fabric: unknown delivery kind byte " +
                                  std::to_string(kindByte));
        const auto kind = static_cast<Delivery>(kindByte);
        const std::uint64_t sid = d.u64();
        if (sid >= bySid.size())
            throw snap::SnapError("fabric: delivery names absent "
                                  "sequencer sid " + std::to_string(sid));
        // Proxy requests go to the OMS (sid 0); the serialization and
        // proxy-completion signals only ever to an AMS.
        if ((kind == Delivery::ProxyRequest) != (sid == 0) &&
            kind != Delivery::Signal)
            throw snap::SnapError("fabric: delivery kind " +
                                  std::to_string(kindByte) +
                                  " cannot target sid " +
                                  std::to_string(sid));
        Packet p;
        p.kind = kind;
        p.dst = bySid[sid];
        if (kind == Delivery::ProxyDone)
            p.serviced = snap::getContext(d);
        else
            p.payload = snap::getPayload(d);
        snap::getPending(d, eq_, pool_, kDeliveryPrio, "fabric delivery",
                         p);
    }
}

} // namespace misp::arch
