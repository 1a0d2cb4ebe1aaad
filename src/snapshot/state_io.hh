/**
 * @file
 * Shared value-type codecs for machine-state snapshots: the small
 * structs (sequencer contexts, faults, signal payloads) that several
 * layers archive — the sequencer itself, the proxy queue, the kernel's
 * thread save areas, the runtimes' shred descriptors. One codec per
 * type keeps their layouts from drifting apart across sections.
 */

#ifndef MISP_SNAPSHOT_STATE_IO_HH
#define MISP_SNAPSHOT_STATE_IO_HH

#include "cpu/sequencer.hh"
#include "mem/paging.hh"
#include "sim/event_queue.hh"
#include "snapshot/serialize.hh"

namespace misp::snap {

/** Archive one pending member event's (scheduled, when, seq). */
inline void
putEventSchedule(Serializer &s, const Event *ev)
{
    s.b(ev->scheduled());
    if (ev->scheduled()) {
        s.u64(ev->when());
        s.u64(ev->seq());
    }
}

/** Validate an archived (when, seq) against the restored clock — a
 *  hostile image must become a SnapError here, not a queue panic. */
inline void
checkEventSchedule(const EventQueue &eq, Tick when, std::uint64_t seq)
{
    if (when < eq.curTick() || seq >= eq.nextSeq())
        throw SnapError("image: pending event is inconsistent with the "
                        "restored clock");
}

/** Re-enqueue one pending member event archived by putEventSchedule. */
inline void
getEventSchedule(Deserializer &d, EventQueue &eq, Event *ev)
{
    if (d.b()) {
        Tick when = d.u64();
        std::uint64_t seq = d.u64();
        checkEventSchedule(eq, when, seq);
        eq.restoreSchedule(ev, when, seq);
    }
}

inline void
putContext(Serializer &s, const cpu::SequencerContext &ctx)
{
    for (Word r : ctx.regs)
        s.u64(r);
    s.u64(ctx.eip);
    s.b(ctx.flags.zf);
    s.b(ctx.flags.sf);
    s.b(ctx.flags.cf);
    s.b(ctx.flags.of);
    for (VAddr t : ctx.triggers)
        s.u64(t);
    s.u64(ctx.savedEip);
    s.b(ctx.inHandler);
    for (Word r : ctx.bankedRegs)
        s.u64(r);
}

inline cpu::SequencerContext
getContext(Deserializer &d)
{
    cpu::SequencerContext ctx;
    for (Word &r : ctx.regs)
        r = d.u64();
    ctx.eip = d.u64();
    ctx.flags.zf = d.b();
    ctx.flags.sf = d.b();
    ctx.flags.cf = d.b();
    ctx.flags.of = d.b();
    for (VAddr &t : ctx.triggers)
        t = d.u64();
    ctx.savedEip = d.u64();
    ctx.inHandler = d.b();
    for (Word &r : ctx.bankedRegs)
        r = d.u64();
    return ctx;
}

inline void
putFault(Serializer &s, const mem::Fault &fault)
{
    s.u8(static_cast<std::uint8_t>(fault.kind));
    s.u64(fault.addr);
    s.b(fault.write);
    s.u64(fault.code);
}

inline mem::Fault
getFault(Deserializer &d)
{
    mem::Fault fault;
    const std::uint8_t kind = d.u8();
    if (kind > static_cast<std::uint8_t>(mem::FaultKind::Breakpoint))
        throw SnapError("fault: bad kind byte");
    fault.kind = static_cast<mem::FaultKind>(kind);
    fault.addr = d.u64();
    fault.write = d.b();
    fault.code = d.u64();
    return fault;
}

inline void
putPayload(Serializer &s, const cpu::SignalPayload &p)
{
    s.u64(p.eip);
    s.u64(p.esp);
    s.u64(p.arg);
}

inline cpu::SignalPayload
getPayload(Deserializer &d)
{
    cpu::SignalPayload p;
    p.eip = d.u64();
    p.esp = d.u64();
    p.arg = d.u64();
    return p;
}

} // namespace misp::snap

#endif // MISP_SNAPSHOT_STATE_IO_HH
