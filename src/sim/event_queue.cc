#include "event_queue.hh"

#include <algorithm>

namespace misp {

Event::~Event()
{
    // Destroying a still-scheduled event is a simulator bug: the queue
    // would be left holding a dangling pointer. We cannot throw from a
    // destructor, so print and abort via terminate semantics instead.
    if (scheduled_ && !squashed_) {
        std::fprintf(stderr,
                     "panic: event '%s' destroyed while scheduled\n",
                     name_.c_str());
        std::abort();
    }
}

void
EventQueue::push(const Entry &entry)
{
    if (!rootHeld_) {
        heap_.push_back(entry);
        std::push_heap(heap_.begin(), heap_.end(), EntryCompare{});
        return;
    }
    // Replace the held (stale) root and sift the new entry down once,
    // instead of popping the root and pushing the entry separately.
    rootHeld_ = false;
    const EntryCompare later;
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
        std::size_t child = 2 * hole + 1;
        if (child >= n)
            break;
        if (child + 1 < n && later(heap_[child], heap_[child + 1]))
            ++child;
        if (!later(entry, heap_[child]))
            break;
        heap_[hole] = heap_[child];
        hole = child;
    }
    heap_[hole] = entry;
}

void
EventQueue::popRoot()
{
    std::pop_heap(heap_.begin(), heap_.end(), EntryCompare{});
    heap_.pop_back();
}

void
EventQueue::dropHeldRoot()
{
    if (rootHeld_) {
        rootHeld_ = false;
        popRoot();
    }
}

namespace {

/** Frees a processed queue-owned lambda once its process() returns or
 *  throws. */
struct Reaper {
    std::size_t &numOwned;
    Event *ev;
    ~Reaper()
    {
        if (ev) {
            --numOwned;
            delete static_cast<LambdaEvent *>(ev);
        }
    }
};

} // namespace

void
EventQueue::schedule(Event *ev, Tick when)
{
    MISP_ASSERT(ev != nullptr);
    if (ev->scheduled_)
        panic("event '%s' already scheduled", ev->name().c_str());
    if (when < curTick_)
        panic("event '%s' scheduled in the past (%llu < %llu)",
              ev->name().c_str(), (unsigned long long)when,
              (unsigned long long)curTick_);

    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    ev->scheduled_ = true;
    ev->squashed_ = false;
    push(Entry{when, ev->priority(), ev->queueOwned_, ev->seq_, ev});
    ++live_;
}

void
EventQueue::restoreSchedule(Event *ev, Tick when, std::uint64_t seq)
{
    MISP_ASSERT(ev != nullptr);
    MISP_ASSERT(!ev->scheduled_);
    MISP_ASSERT(when >= curTick_);
    MISP_ASSERT(seq < nextSeq_);

    ev->when_ = when;
    ev->seq_ = seq;
    ev->scheduled_ = true;
    ev->squashed_ = false;
    push(Entry{when, ev->priority(), ev->queueOwned_, seq, ev});
    ++live_;
}

void
EventQueue::setClock(Tick curTick, std::uint64_t nextSeq,
                     std::uint64_t numProcessed)
{
    MISP_ASSERT(heap_.empty());
    curTick_ = curTick;
    nextSeq_ = nextSeq;
    numProcessed_ = numProcessed;
}

void
EventQueue::deschedule(Event *ev)
{
    MISP_ASSERT(ev != nullptr);
    if (!ev->scheduled_)
        panic("deschedule of unscheduled event '%s'", ev->name().c_str());
    // Lazy deletion: mark squashed; the heap entry is discarded when it
    // reaches the top.
    ev->squashed_ = true;
    ev->scheduled_ = false;
    --live_;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled_)
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::forEachScheduled(
    const std::function<void(const ScheduledInfo &)> &fn) const
{
    for (const Entry &entry : heap_) {
        // Stale entries (squashed, or descheduled-and-rescheduled with
        // a newer seq) are skipped exactly as popReady() would.
        if (stale(entry))
            continue;
        ScheduledInfo info;
        info.ev = entry.ev;
        info.when = entry.when;
        info.seq = entry.seq;
        info.priority = entry.priority;
        if (const auto *lambda =
                dynamic_cast<const LambdaEvent *>(entry.ev)) {
            if (lambda->tag().kind != 0)
                info.tag = &lambda->tag();
        }
        fn(info);
    }
}

Event *
EventQueue::popReady()
{
    while (!heap_.empty()) {
        Entry top = heap_.front();
        popRoot();
        if (stale(top))
            continue;
        top.ev->scheduled_ = false;
        --live_;
        curTick_ = top.when;
        return top.ev;
    }
    return nullptr;
}

bool
EventQueue::step()
{
    dropHeldRoot();
    Event *ev = popReady();
    if (!ev)
        return false;
    ++numProcessed_;
    Reaper reap{numOwned_, ev->queueOwned_ ? ev : nullptr};
    ev->process();
    return true;
}

bool
EventQueue::continueWith(Event *ev, Tick when)
{
    schedule(ev, when);
    if (!inRun_ || stopRequested_ || when > runMaxTick_ || runBudget_ == 0)
        return false;
    // The new entry is next exactly when only stale entries (which
    // run() would discard) order before it.
    while (heap_.front().ev != ev || heap_.front().seq != ev->seq_) {
        if (!stale(heap_.front()))
            return false;
        popRoot();
    }
    --runBudget_;
    ev->scheduled_ = false;
    --live_;
    curTick_ = when;
    ++numProcessed_;
    rootHeld_ = true;
    return true;
}

Tick
EventQueue::run(Tick maxTick, std::uint64_t maxEvents)
{
    // Leaves the queue clean even when a process() throws: a held root
    // is stale, so it is simply dropped (as is one held by an enclosing
    // run() or step() whose process() called this one), and an
    // enclosing run()'s limits come back.
    struct RunScope {
        EventQueue &q;
        bool inRun;
        Tick maxTick;
        std::uint64_t budget;
        ~RunScope()
        {
            q.dropHeldRoot();
            q.inRun_ = inRun;
            q.runMaxTick_ = maxTick;
            q.runBudget_ = budget;
        }
    } scope{*this, inRun_, runMaxTick_, runBudget_};
    dropHeldRoot();
    inRun_ = true;
    runMaxTick_ = maxTick;
    runBudget_ = maxEvents;
    stopRequested_ = false;
    while (!heap_.empty() && !stopRequested_) {
        // Peek: stop before processing events beyond the horizon.
        const Entry &top = heap_.front();
        if (stale(top)) {
            popRoot();
            continue;
        }
        if (top.when > maxTick)
            break;
        if (runBudget_ == 0) {
            warn("event budget exhausted at tick %llu",
                 (unsigned long long)curTick_);
            break;
        }
        --runBudget_;
        Event *ev = top.ev;
        ev->scheduled_ = false;
        --live_;
        curTick_ = top.when;
        ++numProcessed_;
        Reaper reap{numOwned_, top.owned ? ev : nullptr};
        rootHeld_ = true;
        ev->process();
        dropHeldRoot();
    }
    return curTick_;
}

EventQueue::~EventQueue()
{
    // heap_ entries may point at events whose owners destroyed them
    // already — legal once squashed — so only the entries of the lambda
    // events this queue owns (pending ones, restored ones included) are
    // dereferenced: unhook their scheduled state (a pending one at
    // shutdown is fine) so Event::~Event doesn't see a live schedule,
    // then free them.
    for (const Entry &entry : heap_) {
        if (entry.owned) {
            entry.ev->scheduled_ = false;
            delete static_cast<LambdaEvent *>(entry.ev);
        }
    }
}

} // namespace misp
