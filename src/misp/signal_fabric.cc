#include "signal_fabric.hh"

#include "obs/trace.hh"
#include "snapshot/tags.hh"

namespace misp::arch {

SignalFabric::SignalFabric(EventQueue &eq, Cycles signalCycles,
                           stats::StatGroup *parent, int ownerCpu)
    : eq_(eq),
      signalCycles_(signalCycles),
      ownerCpu_(ownerCpu),
      statGroup_("fabric", parent),
      deliveries_(&statGroup_, "deliveries", "signals delivered")
{}

namespace {

/** Pending deliveries are snapshottable: the closure is rebuilt at
 *  restore from (owner CPU, target SID, payload). */
EventTag
deliveryTag(std::uint32_t kind, int ownerCpu, SequencerId sid,
            const cpu::SignalPayload &payload)
{
    EventTag tag;
    if (ownerCpu < 0)
        return tag; // untagged: bare-fabric tests, never snapshotted
    tag.kind = kind;
    tag.arg = {static_cast<std::uint64_t>(ownerCpu), sid, payload.eip,
               payload.esp, payload.arg};
    return tag;
}

} // namespace

void
SignalFabric::sendSignal(cpu::Sequencer &dst,
                         const cpu::SignalPayload &payload)
{
    ++deliveries_;
    obs::trace(obs::TraceKind::SignalSend, dst.sid(),
               ownerCpu_ < 0 ? 0 : static_cast<std::uint32_t>(ownerCpu_),
               payload.eip, payload.arg);
    cpu::Sequencer *target = &dst;
    eq_.scheduleLambda(eq_.curTick() + signalCycles_, "fabric.signal",
                       [target, payload] { target->deliverSignal(payload); },
                       kDeliveryPrio,
                       deliveryTag(snap::tag::kFabricSignal, ownerCpu_,
                                   dst.sid(), payload));
}

void
SignalFabric::sendProxyRequest(cpu::Sequencer &oms,
                               const cpu::SignalPayload &payload)
{
    ++deliveries_;
    obs::trace(obs::TraceKind::ProxySend, oms.sid(),
               ownerCpu_ < 0 ? 0 : static_cast<std::uint32_t>(ownerCpu_),
               payload.arg);
    cpu::Sequencer *target = &oms;
    eq_.scheduleLambda(
        eq_.curTick() + signalCycles_, "fabric.proxyReq",
        [target, payload] { target->deliverProxyRequest(payload); },
        kDeliveryPrio,
        deliveryTag(snap::tag::kFabricProxyReq, ownerCpu_, oms.sid(),
                    payload));
}

void
SignalFabric::sendAction(const std::string &name,
                         std::function<void()> action)
{
    ++deliveries_;
    eq_.scheduleLambda(eq_.curTick() + signalCycles_, name,
                       std::move(action), kDeliveryPrio);
}

} // namespace misp::arch
