/**
 * @file
 * Shared value-type archive bodies for machine-state snapshots: the
 * small structs (sequencer contexts, faults, signal payloads) that
 * several layers archive — the sequencer itself, the proxy queue, the
 * kernel's thread save areas, the runtimes' shred descriptors — and
 * the two shapes a pending event takes in an image. One body per type
 * keeps their layouts from drifting apart across sections.
 */

#ifndef MISP_SNAPSHOT_STATE_IO_HH
#define MISP_SNAPSHOT_STATE_IO_HH

#include <string>

#include "cpu/sequencer.hh"
#include "mem/paging.hh"
#include "sim/event_queue.hh"
#include "snapshot/serialize.hh"

namespace misp::snap {

/** Image bytes of one archived context, payload and fault (the lower
 *  bounds count() checks element counts against). */
constexpr std::uint64_t kContextBytes =
    8 * (isa::kNumRegs + 1 + static_cast<std::size_t>(
                                 isa::Scenario::NumScenarios) +
         1 + 4) +
    4 + 1;
constexpr std::uint64_t kPayloadBytes = 3 * 8;
constexpr std::uint64_t kFaultBytes = 1 + 8 + 1 + 8;
/** A pooled occurrence's (when, seq, priority). */
constexpr std::uint64_t kPendingBytes = 3 * 8;

/** Refuse an archived (when, seq) of @p what that is not past the
 *  restored clock — a hostile image must become a SnapError naming
 *  the field, not a queue panic. */
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

/** One member event's (scheduled, when, seq); load re-enqueues it. */
template <class Ar>
void
archiveSchedule(Ar &a, EventQueue &eq, Event &ev)
{
    bool scheduled = ev.scheduled();
    a.b(scheduled);
    if (!scheduled)
        return;
    Tick when = ev.when();
    std::uint64_t seq = ev.seq();
    a.u64(when);
    a.u64(seq);
    if constexpr (Ar::kLoading) {
        checkEventSchedule(eq, when, seq, "event '" + ev.name() + "'");
        eq.restoreSchedule(&ev, when, seq);
    } else {
        a.archiveEvent(&ev);
    }
}

/**
 * The pending occurrences of @p pool: a count, then per occurrence its
 * data (through @p data, at least @p minDataBytes) and its (when, seq,
 * priority). Load re-creates each in @p pool. Pooled occurrences are
 * only ever scheduled at @p priority: any other would silently reorder
 * same-tick events.
 */
template <class Ar, class Pool, class DataFn>
void
archivePending(Ar &a, const EventQueue &eq, Pool &pool, int priority,
               std::uint64_t minDataBytes, const std::string &what,
               DataFn &&data)
{
    using Occurrence = typename Pool::Occurrence;
    std::vector<const Occurrence *> pending;
    if constexpr (!Ar::kLoading)
        pending = pool.pending();
    std::uint64_t n = pending.size();
    a.count(n, minDataBytes + kPendingBytes, what.c_str());
    for (std::uint64_t i = 0; i < n; ++i) {
        decltype(Occurrence::data) d{};
        Tick when = 0;
        std::uint64_t seq = 0;
        std::int64_t prio = priority;
        if constexpr (!Ar::kLoading) {
            d = pending[i]->data;
            when = pending[i]->when();
            seq = pending[i]->seq();
            prio = pending[i]->priority();
            a.archiveEvent(pending[i]);
        }
        data(d);
        a.u64(when);
        a.u64(seq);
        a.i64(prio);
        if constexpr (Ar::kLoading) {
            if (prio != priority)
                throw SnapError("image: " + what + " has priority " +
                                std::to_string(prio) + ", not " +
                                std::to_string(priority));
            checkEventSchedule(eq, when, seq, what);
            pool.restore(when, seq, d);
        }
    }
}

template <class Ar>
void
archive(Ar &a, cpu::SequencerContext &ctx)
{
    for (Word &r : ctx.regs)
        a.u64(r);
    a.u64(ctx.eip);
    // FLAGS is one packed nibble in memory but one byte per flag here.
    bool zf = ctx.flags.zf(), sf = ctx.flags.sf(), cf = ctx.flags.cf(),
         of = ctx.flags.of();
    a.b(zf);
    a.b(sf);
    a.b(cf);
    a.b(of);
    if constexpr (Ar::kLoading)
        ctx.flags = isa::Flags::make(zf, sf, cf, of);
    for (VAddr &t : ctx.triggers)
        a.u64(t);
    a.u64(ctx.savedEip);
    a.b(ctx.inHandler);
    for (Word &r : ctx.bankedRegs)
        a.u64(r);
}

template <class Ar>
void
archive(Ar &a, mem::Fault &fault)
{
    a.enumByte(fault.kind,
               static_cast<std::size_t>(mem::FaultKind::Breakpoint) + 1,
               "fault kind");
    a.u64(fault.addr);
    a.b(fault.write);
    a.u64(fault.code);
}

template <class Ar>
void
archive(Ar &a, cpu::SignalPayload &p)
{
    a.u64(p.eip);
    a.u64(p.esp);
    a.u64(p.arg);
}

} // namespace misp::snap

#endif // MISP_SNAPSHOT_STATE_IO_HH
