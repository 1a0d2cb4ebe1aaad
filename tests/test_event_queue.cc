/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

using namespace misp;

namespace {

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::string name, std::vector<std::string> &log,
                   int priority = kPrioDefault)
        : Event(std::move(name), priority), log_(log)
    {}

    void process() override { log_.push_back(name()); }

  private:
    std::vector<std::string> &log_;
};

} // namespace

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log), b("b", log), c("c", log);
    eq.schedule(&a, 30);
    eq.schedule(&b, 10);
    eq.schedule(&c, 20);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b", "c", "a"}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent low("low", log, Event::kPrioStats);
    RecordingEvent first("first", log, Event::kPrioDefault);
    RecordingEvent second("second", log, Event::kPrioDefault);
    RecordingEvent irq("irq", log, Event::kPrioInterrupt);
    eq.schedule(&low, 5);
    eq.schedule(&first, 5);
    eq.schedule(&second, 5);
    eq.schedule(&irq, 5);
    eq.run();
    EXPECT_EQ(log,
              (std::vector<std::string>{"irq", "first", "second", "low"}));
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    eq.schedule(&a, 10);
    eq.run();
    RecordingEvent b("b", log);
    EXPECT_THROW(eq.schedule(&b, 5), SimError);
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    eq.schedule(&a, 10);
    EXPECT_THROW(eq.schedule(&a, 20), SimError);
    eq.deschedule(&a);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log), b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b"}));
}

TEST(EventQueue, DescheduleUnscheduledPanics)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    EXPECT_THROW(eq.deschedule(&a), SimError);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log), b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b", "a"}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, LambdaEventsRunAndAreOwned)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleLambda(5, "inc", [&count] { ++count; });
    eq.scheduleLambda(6, "inc", [&count] { ++count; });
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    std::function<void()> chain = [&] {
        ticks.push_back(eq.curTick());
        if (ticks.size() < 5)
            eq.scheduleLambda(eq.curTick() + 10, "chain", chain);
    };
    eq.scheduleLambda(0, "chain", chain);
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{0, 10, 20, 30, 40}));
}

TEST(EventQueue, MaxTickStopsBeforeProcessing)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log), b("b", log);
    eq.schedule(&a, 10);
    eq.schedule(&b, 100);
    eq.run(50);
    EXPECT_EQ(log, (std::vector<std::string>{"a"}));
    EXPECT_TRUE(b.scheduled());
    eq.deschedule(&b);
}

TEST(EventQueue, RequestStopEndsRun)
{
    EventQueue eq;
    int after = 0;
    eq.scheduleLambda(10, "stop", [&eq] { eq.requestStop(); });
    eq.scheduleLambda(20, "after", [&after] { ++after; });
    eq.run();
    EXPECT_EQ(after, 0);
    // A later run picks the remaining event up again.
    eq.run();
    EXPECT_EQ(after, 1);
}

TEST(EventQueue, StepProcessesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleLambda(1, "a", [&count] { ++count; });
    eq.scheduleLambda(2, "b", [&count] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, DescheduleSkipsPendingOccurrence)
{
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent a("a", log);
    eq.schedule(&a, 10);
    EXPECT_EQ(eq.size(), 1u);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    eq.run();
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(eq.numProcessed(), 0u);
}

TEST(EventQueue, DescheduledEventMayBeDestroyedAtOnce)
{
    // The queue keeps no entry for a descheduled event, so its owner
    // may free it while the queue runs on (ASan flags any later read).
    EventQueue eq;
    std::vector<std::string> log;
    auto a = std::make_unique<RecordingEvent>("a", log);
    RecordingEvent b("b", log);
    eq.schedule(a.get(), 10);
    eq.schedule(&b, 20);
    eq.deschedule(a.get());
    a.reset();
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b"}));
    EXPECT_TRUE(eq.empty());

    // The same from inside a running event, which holds the root.
    auto c = std::make_unique<RecordingEvent>("c", log);
    eq.schedule(c.get(), 40);
    eq.scheduleLambda(30, "drop", [&] {
        eq.deschedule(c.get());
        c.reset();
        EXPECT_TRUE(eq.empty());
        eq.schedule(&b, 50);
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b", "b"}));
    EXPECT_EQ(eq.curTick(), 50u);
}

TEST(EventQueue, NumProcessedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.scheduleLambda(i, "e", [] {});
    eq.run();
    EXPECT_EQ(eq.numProcessed(), 7u);
}

TEST(EventQueue, LambdasAreFreedWhenTheyRun)
{
    // A self-rescheduling chain of 10^5 one-shot lambdas, each holding a
    // copy of `token`: each must be freed as it runs, so the live ones
    // never exceed the pending events plus the one running.
    EventQueue eq;
    auto token = std::make_shared<int>(0);
    int left = 100000;
    long maxLambdas = 0;
    bool bounded = true;
    // Beyond the lambdas' copies, `token` and `tick` each hold one.
    const auto lambdas = [&token] { return token.use_count() - 2; };
    std::function<void()> tick = [&, token] {
        maxLambdas = std::max(maxLambdas, lambdas());
        bounded = bounded && lambdas() <= long(eq.size()) + 1;
        if (--left > 0)
            eq.scheduleLambda(eq.curTick() + 1, "tick", tick);
    };
    eq.scheduleLambda(0, "tick", tick);
    eq.scheduleLambda(0, "tick", tick);
    eq.run();
    EXPECT_LE(left, 0);
    EXPECT_TRUE(bounded);
    EXPECT_LE(maxLambdas, 3);
    EXPECT_EQ(lambdas(), 0);
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, PendingLambdasAreFreedAtDestruction)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        eq.setClock(10, 5, 0);
        eq.scheduleLambda(20, "first", [token] {});
        eq.scheduleLambda(30, "second", [token] {});
        eq.step(); // runs (and frees) the first one
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, LambdaAtTheHeldRootSchedulesATypedEventForItsTick)
{
    // The lambda frees itself while its entry is still the held root;
    // the typed event it schedules for the same tick replaces that root
    // and must run next, before the later one.
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent typed("typed", log), later("later", log);
    eq.schedule(&later, 20);
    eq.scheduleLambda(10, "lambda", [&] {
        log.push_back("lambda");
        eq.schedule(&typed, eq.curTick());
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"lambda", "typed", "later"}));
    EXPECT_EQ(eq.numProcessed(), 3u);
    EXPECT_EQ(eq.curTick(), 20u);
}

namespace {

/** Owner of pooled occurrences: logs each one's value. */
struct Logger {
    std::vector<int> log;
    void arrive(const int &value) { log.push_back(value); }
};

using LogPool = EventPool<Logger, int, &Logger::arrive>;

struct Counter {
    int hits = 0;
    void hit() { ++hits; }
};

} // namespace

TEST(EventPool, OccurrencesKeepTheirOwnEntriesAndReuseEvents)
{
    EventQueue eq;
    Logger logger;
    LogPool pool(eq, logger, "pooled", Event::kPrioDefault);
    // Same tick, same priority: insertion order, one entry each.
    pool.schedule(10, 1);
    pool.schedule(10, 2);
    pool.schedule(5, 3);
    const auto pending = pool.pending();
    ASSERT_EQ(pending.size(), 3u);
    EXPECT_EQ(pending[0]->data, 1); // oldest sequence number first
    EXPECT_EQ(pending[1]->data, 2);
    EXPECT_EQ(pending[2]->data, 3);
    EXPECT_EQ(pending[0]->name(), "pooled");
    eq.run();
    EXPECT_EQ(logger.log, (std::vector<int>{3, 1, 2}));
    EXPECT_TRUE(pool.pending().empty());
    // Freed events are handed out again instead of new ones.
    pool.schedule(20, 4);
    EXPECT_EQ(pool.pending()[0], pending[1]);

    // An occurrence may schedule the next one from its own process().
    struct Chain {
        explicit Chain(EventQueue &q) : eq(q) {}

        void
        next(const int &left)
        {
            at.push_back(eq.curTick());
            if (left > 0)
                pool->schedule(eq.curTick() + 10, left - 1);
        }

        EventQueue &eq;
        std::vector<Tick> at;
        EventPool<Chain, int, &Chain::next> *pool = nullptr;
    };
    EventQueue eq2;
    Chain chain(eq2);
    EventPool<Chain, int, &Chain::next> chainPool(eq2, chain, "chain", 0);
    chain.pool = &chainPool;
    chainPool.schedule(0, 3);
    eq2.run();
    EXPECT_EQ(chain.at, (std::vector<Tick>{0, 10, 20, 30}));
}

TEST(EventPool, RestoreKeepsTheArchivedSequenceNumber)
{
    EventQueue eq;
    Logger logger;
    LogPool pool(eq, logger, "pooled", Event::kPrioDefault);
    eq.setClock(100, 10, 0);
    pool.restore(150, 7, 1);
    pool.restore(150, 3, 2); // older: runs first at the same tick
    pool.schedule(150, 3);   // seq 10: runs last
    eq.run();
    EXPECT_EQ(logger.log, (std::vector<int>{2, 1, 3}));
}

TEST(EventPool, DestructionDetachesPendingOccurrences)
{
    EventQueue eq;
    Logger logger;
    {
        LogPool pool(eq, logger, "pooled", Event::kPrioDefault);
        pool.schedule(10, 1);
    } // would abort in Event::~Event if still scheduled
    EXPECT_TRUE(eq.empty());
    EXPECT_TRUE(logger.log.empty());
}

TEST(EventPool, MemberEventCallsItsOwner)
{
    EventQueue eq;
    Counter counter;
    MemberEvent<Counter, &Counter::hit> ev(counter, "hit");
    eq.schedule(&ev, 3);
    eq.run();
    eq.schedule(&ev, 7);
    eq.run();
    EXPECT_EQ(counter.hits, 2);
}

namespace {

/** One occurrence as the event saw it. */
using Occurrence = std::tuple<Tick, std::uint64_t, std::uint64_t>;

/**
 * The run-slice pattern: on each occurrence the event books its next
 * one `step` ticks later, either in place (continueWith, looping while
 * the queue hands it straight back) or through schedule().
 */
class Slicer : public Event
{
  public:
    Slicer(EventQueue &eq, bool inPlace, int occurrences, Tick step,
           int priority = kPrioCpu)
        : Event("slicer", priority), eq_(eq), inPlace_(inPlace),
          left_(occurrences), step_(step)
    {}

    ~Slicer() override
    {
        if (scheduled())
            eq_.deschedule(this);
    }

    void
    process() override
    {
        for (;;) {
            log.emplace_back(eq_.curTick(), eq_.numProcessed(), seq());
            if (beforeBooking)
                beforeBooking();
            if (--left_ <= 0)
                return;
            if (!inPlace_) {
                eq_.schedule(this, eq_.curTick() + step_);
                return;
            }
            const bool took = eq_.continueWith(this, eq_.curTick() + step_);
            taken.push_back(took);
            if (!took)
                return;
        }
    }

    std::vector<Occurrence> log;
    std::vector<bool> taken;
    std::function<void()> beforeBooking;

  private:
    EventQueue &eq_;
    bool inPlace_;
    int left_;
    Tick step_;
};

/** Run the same slicer both ways, with @p setup adding other events
 *  to each queue; the occurrence logs and clocks must agree. Returns
 *  the in-place slicer's continueWith() outcomes. */
std::vector<bool>
compareWithScheduleAndPop(
    const std::function<void(EventQueue &, std::vector<std::string> &)>
        &setup,
    Tick maxTick = kMaxTick, std::uint64_t maxEvents = ~std::uint64_t{0})
{
    std::vector<bool> taken;
    std::vector<Occurrence> want;
    std::uint64_t wantSeq = 0;
    std::uint64_t wantProcessed = 0;
    std::vector<std::string> wantOrder;
    for (bool inPlace : {false, true}) {
        EventQueue eq;
        std::vector<std::string> order;
        Slicer s(eq, inPlace, 6, 10);
        s.beforeBooking = [&order] { order.push_back("slice"); };
        eq.schedule(&s, 10);
        setup(eq, order);
        eq.run(maxTick, maxEvents);
        if (!inPlace) {
            want = s.log;
            wantSeq = eq.nextSeq();
            wantProcessed = eq.numProcessed();
            wantOrder = order;
        } else {
            EXPECT_EQ(s.log, want);
            EXPECT_EQ(eq.nextSeq(), wantSeq);
            EXPECT_EQ(eq.numProcessed(), wantProcessed);
            EXPECT_EQ(order, wantOrder);
            taken = s.taken;
        }
    }
    return taken;
}

} // namespace

TEST(EventQueueContinuation, TakenWhenNothingOrdersFirst)
{
    EventQueue eq;
    Slicer s(eq, /*inPlace=*/true, 4, 10);
    eq.schedule(&s, 10);
    eq.run();
    EXPECT_EQ(s.taken, (std::vector<bool>{true, true, true}));
    // Exactly what schedule() plus the pop would have produced.
    EXPECT_EQ(s.log, (std::vector<Occurrence>{
                         {10, 1, 0}, {20, 2, 1}, {30, 3, 2}, {40, 4, 3}}));
    EXPECT_EQ(eq.curTick(), 40u);
    EXPECT_EQ(eq.numProcessed(), 4u);
    EXPECT_EQ(eq.nextSeq(), 4u);
    EXPECT_FALSE(s.scheduled());
    EXPECT_TRUE(eq.empty());
    compareWithScheduleAndPop([](EventQueue &, std::vector<std::string> &) {
    });
}

TEST(EventQueueContinuation, RefusedWhenALiveEntryIsEarlier)
{
    const auto taken = compareWithScheduleAndPop(
        [&](EventQueue &eq, std::vector<std::string> &order) {
            eq.scheduleLambda(25, "early", [&order] {
                order.push_back("early");
            });
        });
    // Slices at 10 and 20 continue; the one due at 30 waits for 25.
    ASSERT_FALSE(taken.empty());
    EXPECT_TRUE(taken[0]);
    EXPECT_FALSE(taken[1]);
}

TEST(EventQueueContinuation, RefusedBySameTickLowerOrEqualPriority)
{
    for (int prio : {int(Event::kPrioInterrupt), int(Event::kPrioDefault),
                     int(Event::kPrioCpu)}) {
        const auto taken = compareWithScheduleAndPop(
            [prio](EventQueue &eq, std::vector<std::string> &order) {
                eq.scheduleLambda(
                    20, "same-tick",
                    [&order] { order.push_back("same-tick"); }, prio);
            });
        ASSERT_FALSE(taken.empty()) << prio;
        EXPECT_FALSE(taken[0]) << "priority " << prio;
    }
    // A higher priority value at the same tick orders after the slice.
    const auto taken = compareWithScheduleAndPop(
        [](EventQueue &eq, std::vector<std::string> &order) {
            eq.scheduleLambda(
                20, "stats", [&order] { order.push_back("stats"); },
                Event::kPrioStats);
        });
    ASSERT_FALSE(taken.empty());
    EXPECT_TRUE(taken[0]);
}

TEST(EventQueueContinuation, RefusedByAnotherSequencersRunEvent)
{
    // Two slicers at the same priority: whichever was booked first for
    // a tick goes first, so the other's continuation is refused.
    EventQueue eq;
    Slicer a(eq, true, 4, 10), b(eq, true, 4, 10);
    eq.schedule(&a, 10);
    eq.schedule(&b, 10);
    eq.run();
    EXPECT_EQ(a.taken, (std::vector<bool>{false, false, false}));
    EXPECT_EQ(b.taken, (std::vector<bool>{false, false, false}));
    EXPECT_EQ(eq.numProcessed(), 8u);
}

TEST(EventQueueContinuation, RefusedBeyondMaxTick)
{
    const auto taken = compareWithScheduleAndPop(
        [](EventQueue &, std::vector<std::string> &) {}, /*maxTick=*/35);
    EXPECT_EQ(taken, (std::vector<bool>{true, true, false}));
}

TEST(EventQueueContinuation, RefusedWhenTheEventBudgetIsSpent)
{
    EXPECT_EQ(compareWithScheduleAndPop(
                  [](EventQueue &, std::vector<std::string> &) {},
                  kMaxTick, /*maxEvents=*/1),
              (std::vector<bool>{false}));
    EXPECT_EQ(compareWithScheduleAndPop(
                  [](EventQueue &, std::vector<std::string> &) {},
                  kMaxTick, /*maxEvents=*/3),
              (std::vector<bool>{true, true, false}));
}

TEST(EventQueueContinuation, RefusedAfterRequestStop)
{
    EventQueue eq;
    Slicer s(eq, true, 4, 10);
    s.beforeBooking = [&eq] { eq.requestStop(); };
    eq.schedule(&s, 10);
    eq.run();
    EXPECT_EQ(s.taken, (std::vector<bool>{false}));
    EXPECT_TRUE(s.scheduled());
    EXPECT_EQ(s.when(), 20u);
    EXPECT_EQ(eq.numProcessed(), 1u);
}

TEST(EventQueueContinuation, RefusedUnderStep)
{
    EventQueue eq;
    Slicer s(eq, true, 4, 10);
    eq.schedule(&s, 10);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(s.taken, (std::vector<bool>{false}));
    EXPECT_EQ(eq.numProcessed(), 1u);
    EXPECT_TRUE(s.scheduled());
    // A later run() continues in place again.
    eq.run();
    EXPECT_EQ(s.taken, (std::vector<bool>{false, true, true}));
}

namespace {

/** splitmix64, for seeded operation streams. */
struct Mix {
    std::uint64_t s;
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

/**
 * Differential model of EventQueue: a std::set ordered by
 * (when, priority, seq). Every event's process() draws operations on
 * random events — schedule, deschedule, reschedule, destroy (deschedule
 * and free the event, then replace it), and continueWith on itself —
 * and applies each to the queue and the model; the order of processing,
 * the queue's size, the clock at each occurrence and every continuation
 * verdict must agree.
 */
struct Model {
    using Key = std::tuple<Tick, int, std::uint64_t, int>;
    std::set<Key> live;
    std::vector<std::uint64_t> seqOf; ///< model seq of each id's entry
    std::vector<bool> in;             ///< id has a live model entry
    std::uint64_t nextSeq = 0;

    void
    add(int id, Tick when, int prio)
    {
        live.insert({when, prio, nextSeq, id});
        seqOf[id] = nextSeq++;
        in[id] = true;
    }
    void
    remove(int id, Tick when, int prio)
    {
        live.erase({when, prio, seqOf[id], id});
        in[id] = false;
    }
};

class FuzzEvent;

struct Fuzz {
    EventQueue eq;
    Model model;
    Mix rng{0};
    std::vector<std::unique_ptr<FuzzEvent>> evs;
    std::vector<std::string> mismatches;
    Tick maxTick = kMaxTick;
    std::uint64_t processed = 0;
    std::uint64_t taken = 0;
    std::uint64_t refused = 0;

    void check(int id);
    void operate(int self);
};

class FuzzEvent : public Event
{
  public:
    FuzzEvent(Fuzz &f, int id, int prio)
        : Event("fuzz" + std::to_string(id), prio), f_(f), id_(id)
    {}
    ~FuzzEvent() override
    {
        if (scheduled())
            f_.eq.deschedule(this);
    }
    void
    process() override
    {
        f_.check(id_);
        f_.operate(id_);
    }

  private:
    Fuzz &f_;
    int id_;
};

void
Fuzz::check(int id)
{
    // The model's front must be what the queue just popped.
    ++processed;
    if (model.live.empty()) {
        mismatches.push_back("queue ran an event the model lacks");
        return;
    }
    const Model::Key front = *model.live.begin();
    model.live.erase(model.live.begin());
    model.in[std::get<3>(front)] = false;
    if (std::get<3>(front) != id || std::get<0>(front) != eq.curTick() ||
        eq.numProcessed() != processed) {
        mismatches.push_back("order diverged at event " +
                             std::to_string(processed));
    }
}

void
Fuzz::operate(int self)
{
    const int n = static_cast<int>(evs.size());
    for (int op = 0, ops = 1 + static_cast<int>(rng.pick(3)); op < ops;
         ++op) {
        const int id = static_cast<int>(rng.pick(n));
        FuzzEvent &ev = *evs[id];
        const Tick when = eq.curTick() + rng.pick(40);
        switch (rng.pick(4)) {
          case 0: // schedule
            if (!ev.scheduled()) {
                eq.schedule(&ev, when);
                model.add(id, when, ev.priority());
            }
            break;
          case 1: // deschedule
            if (ev.scheduled()) {
                model.remove(id, ev.when(), ev.priority());
                eq.deschedule(&ev);
            }
            break;
          case 2: // reschedule
            if (model.in[id])
                model.remove(id, ev.when(), ev.priority());
            eq.reschedule(&ev, when);
            model.add(id, when, ev.priority());
            break;
          default: // destroy: the destructor deschedules
            if (id != self) {
                if (model.in[id])
                    model.remove(id, ev.when(), ev.priority());
                evs[id] = std::make_unique<FuzzEvent>(*this, id,
                                                      ev.priority());
            }
            break;
        }
        if (eq.size() != model.live.size() ||
            eq.empty() != model.live.empty())
            mismatches.push_back("size diverged at event " +
                                 std::to_string(processed));
    }
    // Half the time the running event books itself in place.
    FuzzEvent &me = *evs[self];
    if (me.scheduled() || rng.pick(2) != 0)
        return;
    const Tick when = eq.curTick() + rng.pick(30);
    model.add(self, when, me.priority());
    const bool expect = when <= maxTick &&
                        std::get<3>(*model.live.begin()) == self;
    if (eq.continueWith(&me, when) != expect) {
        mismatches.push_back("continuation verdict diverged at event " +
                             std::to_string(processed));
        return;
    }
    if (expect) {
        ++taken;
        check(self);
        operate(self);
    } else {
        ++refused;
    }
}

} // namespace

TEST(EventQueueContinuation, RandomizedDifferentialAgainstOrderedSet)
{
    std::uint64_t taken = 0, refused = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Fuzz f;
        f.rng = Mix{seed};
        f.maxTick = 2000 + f.rng.pick(2000);
        static const int kPrios[] = {Event::kPrioInterrupt,
                                     Event::kPrioDefault, Event::kPrioCpu,
                                     Event::kPrioStats};
        const int n = 4 + static_cast<int>(f.rng.pick(12));
        f.model.seqOf.assign(n, 0);
        f.model.in.assign(n, false);
        for (int i = 0; i < n; ++i)
            f.evs.push_back(
                std::make_unique<FuzzEvent>(f, i, kPrios[f.rng.pick(4)]));
        for (int i = 0; i < n; ++i) {
            const Tick when = f.rng.pick(20);
            f.eq.schedule(f.evs[i].get(), when);
            f.model.add(i, when, f.evs[i]->priority());
        }
        f.eq.run(f.maxTick);
        EXPECT_TRUE(f.mismatches.empty())
            << "seed " << seed << ": " << f.mismatches.front();
        // Whatever is left must be exactly the model's future.
        if (!f.model.live.empty()) {
            EXPECT_GT(std::get<0>(*f.model.live.begin()), f.maxTick)
                << "seed " << seed;
        }
        EXPECT_EQ(f.eq.nextSeq(), f.model.nextSeq) << "seed " << seed;
        taken += f.taken;
        refused += f.refused;
        if (HasFailure())
            break;
    }
    // Both verdicts must actually occur.
    EXPECT_GT(taken, 1000u);
    EXPECT_GT(refused, 1000u);
}

TEST(EventQueue, ThrowingProcessLeavesTheQueueUsable)
{
    // run() holds the processed entry at the heap root; a process()
    // that throws must not leave it there to shadow a live entry.
    EventQueue eq;
    std::vector<std::string> log;
    RecordingEvent late("late", log);
    auto token = std::make_shared<int>(0);
    eq.scheduleLambda(10, "throws", [token] { panic("boom"); });
    eq.schedule(&late, 30);
    EXPECT_THROW(eq.run(), SimError);
    RecordingEvent early("early", log);
    eq.schedule(&early, 20);
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"early", "late"}));
    EXPECT_EQ(token.use_count(), 1); // the thrower was freed too
}
