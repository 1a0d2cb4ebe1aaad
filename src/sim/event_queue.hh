/**
 * @file
 * The discrete-event simulation core.
 *
 * All simulated activity — sequencer execution slices, signal deliveries,
 * timer interrupts, OS bookkeeping — is expressed as events on a single
 * global-order EventQueue. Events scheduled for the same tick are executed
 * in (priority, insertion-order) order, which keeps simulations fully
 * deterministic for a given configuration.
 */

#ifndef MISP_SIM_EVENT_QUEUE_HH
#define MISP_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "logging.hh"
#include "types.hh"

namespace misp {

class EventQueue;

/**
 * Snapshot identity of a one-shot lambda event. A tagged lambda's
 * closure can be rebuilt from `kind` plus a few words of data (the tag
 * registry lives in snapshot/tags.hh), which is what lets a pending
 * occurrence survive machine-state serialization. kind == 0 marks an
 * untagged lambda: such an event pending at save time makes the
 * machine momentarily unsnapshottable.
 */
struct EventTag {
    std::uint32_t kind = 0;
    std::array<std::uint64_t, 5> arg{};
};

/**
 * An occurrence scheduled at a future tick.
 *
 * Events are intrusive: objects that want callbacks either derive from
 * Event and override process(), or use LambdaEvent. An Event may be
 * scheduled on at most one queue position at a time; rescheduling requires
 * deschedule() first (or use squash()).
 */
class Event
{
  public:
    /** Lower value runs earlier among events at the same tick. */
    enum Priority : int {
        kPrioInterrupt = 0,   ///< interrupt / signal delivery
        kPrioDefault = 50,    ///< normal device/CPU activity
        kPrioCpu = 60,        ///< sequencer execution slices
        kPrioStats = 90,      ///< end-of-quantum accounting
    };

    explicit Event(std::string name, int priority = kPrioDefault)
        : name_(std::move(name)), priority_(priority)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when simulated time reaches the scheduled tick. */
    virtual void process() = 0;

    const std::string &name() const { return name_; }
    int priority() const { return priority_; }

    /** True if currently scheduled on a queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick this event is scheduled for (valid only when scheduled()). */
    Tick when() const { return when_; }

    /** Queue insertion sequence number (same-tick, same-priority
     *  ordering tiebreaker; valid only when scheduled()). */
    std::uint64_t seq() const { return seq_; }

    /** Cancel a pending occurrence without removing it from the queue
     *  structure; the queue skips squashed events when they surface. */
    void squash() { squashed_ = true; }

  private:
    friend class EventQueue;

    std::string name_;
    int priority_;
    Tick when_ = 0;
    std::uint64_t seq_ = 0; ///< insertion order tiebreaker
    bool scheduled_ = false;
    bool squashed_ = false;
    bool queueOwned_ = false; ///< a scheduleLambda/restoreLambda event
};

/** Convenience event wrapping a callable. */
class LambdaEvent : public Event
{
  public:
    LambdaEvent(std::string name, std::function<void()> fn,
                int priority = kPrioDefault, EventTag tag = EventTag{})
        : Event(std::move(name), priority), fn_(std::move(fn)), tag_(tag)
    {}

    void process() override { fn_(); }

    const EventTag &tag() const { return tag_; }

  private:
    std::function<void()> fn_;
    EventTag tag_;
};

/**
 * A deterministic priority queue of events ordered by
 * (tick, priority, insertion order).
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at absolute tick @p when (must be >= curTick()). */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event from the queue. */
    void deschedule(Event *ev);

    /** Reschedule to a new absolute tick (event may or may not be
     *  currently scheduled). */
    void reschedule(Event *ev, Tick when);

    /** Schedule a one-shot heap-allocated callable; the queue owns it
     *  and frees it as soon as its process() returns (or at
     *  destruction, if it never ran). A non-default @p tag makes the
     *  pending occurrence snapshottable (see EventTag). */
    void
    scheduleLambda(Tick when, std::string name, std::function<void()> fn,
                   int priority = Event::kPrioDefault,
                   EventTag tag = EventTag{})
    {
        auto ev = std::make_unique<LambdaEvent>(std::move(name),
                                                std::move(fn), priority, tag);
        ev->queueOwned_ = true;
        schedule(ev.get(), when);
        ++numOwned_;
        ev.release();
    }

    /**
     * Slice continuation: schedule @p ev at @p when from inside the
     * process() that run() is executing, and if that occurrence is the
     * very next event run() would pop, take it at once — accounted
     * exactly as schedule() plus the pop would (sequence number,
     * numProcessed(), curTick() == @p when, the event budget) — so the
     * caller runs it in place instead of returning to the queue.
     *
     * Refused, leaving @p ev scheduled as by schedule(), whenever run()
     * would not pop it next: a live entry orders first (an earlier tick,
     * or the same tick with a lower priority value or an older sequence
     * number), @p when lies beyond run()'s maxTick, run()'s event
     * budget is spent, requestStop() was called, or the queue is not
     * inside run() (step() always processes exactly one event).
     *
     * @return true when taken: @p ev is no longer scheduled and the
     *         caller must perform the occurrence before returning.
     */
    bool continueWith(Event *ev, Tick when);

    /** True when no runnable events remain. */
    bool empty() const { return live_ != 0 ? false : true; }

    /** Number of scheduled (non-squashed) events. */
    std::size_t size() const { return live_; }

    /**
     * Run the simulation.
     *
     * @param maxTick stop (without processing) events beyond this tick.
     * @param maxEvents safety valve against runaway simulations.
     * @return the tick of the last processed event.
     */
    Tick run(Tick maxTick = kMaxTick,
             std::uint64_t maxEvents = ~std::uint64_t{0});

    /** Process exactly one event, if any. @return false if queue empty. */
    bool step();

    /** Ask run() to return after the current event (used by experiment
     *  harnesses when the measured workload completes while background
     *  processes would keep the queue busy forever). */
    void requestStop() { stopRequested_ = true; }

    /** Total events processed over the queue's lifetime. */
    std::uint64_t numProcessed() const { return numProcessed_; }

    // ---- snapshot support ----------------------------------------------
    /** What a scheduled occurrence looks like to the snapshot layer. */
    struct ScheduledInfo {
        const Event *ev = nullptr;
        Tick when = 0;
        std::uint64_t seq = 0;
        int priority = 0;
        /** Non-null when the event is a tagged LambdaEvent. */
        const EventTag *tag = nullptr;
    };

    /** Invoke @p fn for every live (scheduled, non-squashed) entry.
     *  Order is the heap's internal layout — callers that care sort by
     *  seq. Stale entries (descheduled, rescheduled, squashed) are
     *  skipped: they carry no simulation state. */
    void forEachScheduled(
        const std::function<void(const ScheduledInfo &)> &fn) const;

    /**
     * Restore-path scheduling: enqueue @p ev at @p when with its
     * original insertion sequence number, preserving same-tick
     * same-priority ordering exactly. Only valid after setClock():
     * @p seq must be below the restored nextSeq and @p when must not
     * precede the restored current tick.
     */
    void restoreSchedule(Event *ev, Tick when, std::uint64_t seq);

    /** restoreSchedule for a one-shot lambda (rebuilt from its tag). */
    void
    restoreLambda(Tick when, std::uint64_t seq, std::string name,
                  std::function<void()> fn, int priority, EventTag tag)
    {
        auto ev = std::make_unique<LambdaEvent>(std::move(name),
                                                std::move(fn), priority, tag);
        ev->queueOwned_ = true;
        restoreSchedule(ev.get(), when, seq);
        ++numOwned_;
        ev.release();
    }

    /** Lambda events the queue currently owns: those pending, plus at
     *  most the one whose process() is running. */
    std::size_t numOwned() const { return numOwned_; }

    /** Restore the clock state (restore path only; the queue must be
     *  empty and unused). */
    void setClock(Tick curTick, std::uint64_t nextSeq,
                  std::uint64_t numProcessed);

    std::uint64_t nextSeq() const { return nextSeq_; }

    ~EventQueue();

  private:
    struct Entry {
        Tick when;
        int priority;
        bool owned; ///< a queue-owned lambda, freed once processed
        std::uint64_t seq;
        Event *ev;
    };

    struct EntryCompare {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    /** A squashed, descheduled, or rescheduled-since (stale seq)
     *  entry: skipped when it surfaces. */
    static bool
    stale(const Entry &entry)
    {
        return entry.ev->squashed_ || !entry.ev->scheduled_ ||
               entry.ev->seq_ != entry.seq;
    }

    void push(const Entry &entry);
    void popRoot();
    void dropHeldRoot();
    Event *popReady();

    /** Binary max-heap under EntryCompare (std::push_heap/pop_heap);
     *  kept as a plain vector so the snapshot layer can enumerate live
     *  entries without draining the queue. */
    std::vector<Entry> heap_;
    /** While run() processes an event its entry stays at the heap root
     *  (stale: the event is no longer scheduled). The first push()
     *  replaces it with one sift-down; if none comes, run() pops it
     *  when process() returns (dropHeldRoot). */
    bool rootHeld_ = false;
    /** run()'s limits, for continueWith(): valid while inRun_. */
    bool inRun_ = false;
    Tick runMaxTick_ = 0;
    std::uint64_t runBudget_ = 0; ///< events run() may still process
    /** Lambda events not yet freed: pending ones are exactly the
     *  heap's `owned` entries. */
    std::size_t numOwned_ = 0;
    Tick curTick_ = 0;
    bool stopRequested_ = false;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numProcessed_ = 0;
    std::size_t live_ = 0;
};

} // namespace misp

#endif // MISP_SIM_EVENT_QUEUE_HH
