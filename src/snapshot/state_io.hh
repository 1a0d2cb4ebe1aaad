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

#include <string>

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
        s.archiveEvent(ev);
    }
}

/** Validate an archived (when, seq) of @p what against the restored
 *  clock — a hostile image must become a SnapError naming the field,
 *  not a queue panic. */
inline void
checkEventSchedule(const EventQueue &eq, Tick when, std::uint64_t seq,
                   const std::string &what)
{
    if (when < eq.curTick() || seq >= eq.nextSeq())
        throw SnapError("image: " + what + " at (when " +
                        std::to_string(when) + ", seq " + std::to_string(seq) +
                        ") is not past the saved clock (tick " +
                        std::to_string(eq.curTick()) + ", next seq " +
                        std::to_string(eq.nextSeq()) + ")");
}

/** Re-enqueue one pending member event archived by putEventSchedule. */
inline void
getEventSchedule(Deserializer &d, EventQueue &eq, Event *ev)
{
    if (d.b()) {
        Tick when = d.u64();
        std::uint64_t seq = d.u64();
        checkEventSchedule(eq, when, seq, "event '" + ev->name() + "'");
        eq.restoreSchedule(ev, when, seq);
    }
}

/** Archive a pending pooled occurrence's (when, seq, priority). */
inline void
putPending(Serializer &s, const Event *ev)
{
    s.u64(ev->when());
    s.u64(ev->seq());
    s.i64(ev->priority());
    s.archiveEvent(ev);
}

/** Read a putPending record of an occurrence of @p what and re-create
 *  it, carrying @p data, in @p pool. Pooled occurrences are only ever
 *  scheduled at @p priority: any other would silently reorder same-tick
 *  events. */
template <class Pool, class Data>
void
getPending(Deserializer &d, const EventQueue &eq, Pool &pool, int priority,
           const std::string &what, const Data &data)
{
    const Tick when = d.u64();
    const std::uint64_t seq = d.u64();
    const std::int64_t prio = d.i64();
    if (prio != priority)
        throw SnapError("image: " + what + " has priority " +
                        std::to_string(prio) + ", not " +
                        std::to_string(priority));
    checkEventSchedule(eq, when, seq, what);
    pool.restore(when, seq, data);
}

inline void
putContext(Serializer &s, const cpu::SequencerContext &ctx)
{
    for (Word r : ctx.regs)
        s.u64(r);
    s.u64(ctx.eip);
    s.b(ctx.flags.zf());
    s.b(ctx.flags.sf());
    s.b(ctx.flags.cf());
    s.b(ctx.flags.of());
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
    const bool zf = d.b();
    const bool sf = d.b();
    const bool cf = d.b();
    ctx.flags = isa::Flags::make(zf, sf, cf, d.b());
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
