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
 * An occurrence scheduled at a future tick.
 *
 * Events are intrusive: objects that want callbacks derive from Event
 * and override process() (MemberEvent and EventPool cover the common
 * shapes). An Event may be scheduled on at most one queue position at a
 * time; rescheduling requires deschedule() first (or use reschedule()).
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

  private:
    friend class EventQueue;

    std::string name_;
    int priority_;
    Tick when_ = 0;
    std::uint64_t seq_ = 0; ///< insertion order tiebreaker
    bool scheduled_ = false;
};

/**
 * An event whose occurrence is one call of a member function on its
 * owner. It captures nothing, so a pending occurrence is described in
 * full by which event it is plus its (when, seq) — what a snapshot
 * archives for it.
 */
template <class Owner, void (Owner::*Fn)()>
class MemberEvent final : public Event
{
  public:
    MemberEvent(Owner &owner, std::string name, int priority = kPrioDefault)
        : Event(std::move(name), priority), owner_(owner)
    {}

    void process() override { (owner_.*Fn)(); }

  private:
    Owner &owner_;
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

    /** Remove a scheduled event from the queue at once: its owner may
     *  destroy it straight after. */
    void deschedule(Event *ev);

    /** Reschedule to a new absolute tick (event may or may not be
     *  currently scheduled). */
    void reschedule(Event *ev, Tick when);

    /** Schedule a one-shot heap-allocated callable, freed as soon as
     *  its process() returns or throws (or at the queue's destruction,
     *  if it never ran). For tests and benches only: a closure cannot
     *  be archived, so simulated code schedules typed events instead
     *  (misplint's snap-closure-event rule). */
    void
    scheduleLambda(Tick when, std::string name, std::function<void()> fn,
                   int priority = Event::kPrioDefault)
    {
        auto ev = std::make_unique<LambdaEvent>(std::move(name),
                                                std::move(fn), priority);
        schedule(ev.get(), when);
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
     * would not pop it next: another entry orders first (an earlier tick,
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
    bool empty() const { return size() == 0; }

    /** Number of scheduled events. */
    std::size_t size() const { return heap_.size() - (rootHeld_ ? 1 : 0); }

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
    /** Invoke @p fn for every scheduled event. Order is the heap's
     *  internal layout — callers that care sort by seq. */
    void forEachScheduled(const std::function<void(const Event &)> &fn) const;

    /**
     * Restore-path scheduling: enqueue @p ev at @p when with its
     * original insertion sequence number, preserving same-tick
     * same-priority ordering exactly. Only valid after setClock():
     * @p seq must be below the restored nextSeq and @p when must not
     * precede the restored current tick.
     */
    void restoreSchedule(Event *ev, Tick when, std::uint64_t seq);

    /** Restore the clock state (restore path only; the queue must be
     *  empty and unused). */
    void setClock(Tick curTick, std::uint64_t nextSeq,
                  std::uint64_t numProcessed);

    std::uint64_t nextSeq() const { return nextSeq_; }

    ~EventQueue();

  private:
    /** The one-shot event wrapping a scheduled callable; it owns
     *  itself from the moment it runs. */
    class LambdaEvent final : public Event
    {
      public:
        LambdaEvent(std::string name, std::function<void()> fn,
                    int priority)
            : Event(std::move(name), priority), fn_(std::move(fn))
        {}

        void
        process() override
        {
            std::unique_ptr<LambdaEvent> self(this);
            fn_();
        }

      private:
        std::function<void()> fn_;
    };

    struct Entry {
        Tick when;
        int priority;
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

    void push(const Entry &entry);
    /** Fill the hole at @p hole with @p entry, sifting it down. */
    void siftDown(std::size_t hole, const Entry &entry);
    void popRoot();
    void dropHeldRoot();
    Event *popReady();

    /** Binary max-heap under EntryCompare (std::push_heap/pop_heap),
     *  one entry per scheduled event; kept as a plain vector so the
     *  snapshot layer can enumerate it without draining the queue. */
    std::vector<Entry> heap_;
    /** While run() processes an event its entry stays at the heap root
     *  (the only entry whose event is not scheduled). The first push()
     *  replaces it with one sift-down; if none comes, run() pops it
     *  when process() returns (dropHeldRoot). */
    bool rootHeld_ = false;
    /** run()'s limits, for continueWith(): valid while inRun_. */
    bool inRun_ = false;
    Tick runMaxTick_ = 0;
    std::uint64_t runBudget_ = 0; ///< events run() may still process
    Tick curTick_ = 0;
    bool stopRequested_ = false;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t numProcessed_ = 0;
};

/**
 * Typed one-shot occurrences without a closure or an allocation per
 * occurrence. Each pending occurrence is a pooled event holding one
 * plain Data value (a delivery target, a thread); when it fires it
 * calls Owner::Fn(data) and returns to the pool. Each occurrence still
 * takes its own queue entry and sequence number, so pooling changes no
 * ordering. The owner archives pending() and re-creates each with
 * restore().
 */
template <class Owner, class Data, void (Owner::*Fn)(const Data &)>
class EventPool
{
  public:
    class Occurrence final : public Event
    {
      public:
        explicit Occurrence(EventPool &pool)
            : Event(pool.name_, pool.priority_), pool_(pool)
        {}

        void
        process() override
        {
            (pool_.owner_.*Fn)(data);
            pool_.free_.push_back(this);
        }

        Data data{};

      private:
        EventPool &pool_;
    };

    EventPool(EventQueue &eq, Owner &owner, std::string name, int priority)
        : eq_(eq), owner_(owner), name_(std::move(name)), priority_(priority)
    {}

    /** Pending occurrences are detached (a run cut short, a restore
     *  target thrown away) before their events are freed. */
    ~EventPool()
    {
        for (auto &ev : all_)
            if (ev->scheduled())
                eq_.deschedule(ev.get());
    }

    /** Schedule an occurrence carrying @p data at @p when. */
    void
    schedule(Tick when, const Data &data)
    {
        eq_.schedule(make(data), when);
    }

    /** Restore path: re-create an archived occurrence with its original
     *  sequence number (see EventQueue::restoreSchedule). */
    void
    restore(Tick when, std::uint64_t seq, const Data &data)
    {
        eq_.restoreSchedule(make(data), when, seq);
    }

    /** The scheduled occurrences, oldest sequence number first. */
    std::vector<const Occurrence *>
    pending() const
    {
        std::vector<const Occurrence *> out;
        for (const auto &ev : all_)
            if (ev->scheduled())
                out.push_back(ev.get());
        std::sort(out.begin(), out.end(),
                  [](const Occurrence *a, const Occurrence *b) {
                      return a->seq() < b->seq();
                  });
        return out;
    }

  private:
    Occurrence *
    make(const Data &data)
    {
        Occurrence *ev;
        if (free_.empty()) {
            all_.push_back(std::make_unique<Occurrence>(*this));
            ev = all_.back().get();
        } else {
            ev = free_.back();
            free_.pop_back();
        }
        ev->data = data;
        return ev;
    }

    EventQueue &eq_;
    Owner &owner_;
    std::string name_;
    int priority_;
    std::vector<std::unique_ptr<Occurrence>> all_;
    std::vector<Occurrence *> free_;
};

} // namespace misp

#endif // MISP_SIM_EVENT_QUEUE_HH
