#include "event_queue.hh"

#include <algorithm>

namespace misp {

Event::~Event()
{
    // Destroying a still-scheduled event is a simulator bug: the queue
    // would be left holding a dangling pointer. We cannot throw from a
    // destructor, so print and abort via terminate semantics instead.
    if (scheduled_) {
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
    // Replace the held root and sift the new entry down once, instead
    // of popping the root and pushing the entry separately.
    rootHeld_ = false;
    siftDown(0, entry);
}

void
EventQueue::siftDown(std::size_t hole, const Entry &entry)
{
    const EntryCompare later;
    const std::size_t n = heap_.size();
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
    push(Entry{when, ev->priority(), ev->seq_, ev});
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
    push(Entry{when, ev->priority(), seq, ev});
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
    ev->scheduled_ = false;
    // A linear find: the queue holds a dozen or so entries. A held root
    // is the running event's own entry, never @p ev's.
    std::size_t i = rootHeld_ ? 1 : 0;
    while (i < heap_.size() && heap_[i].ev != ev)
        ++i;
    MISP_ASSERT(i < heap_.size());
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size())
        return;
    // Refill the hole with the former last entry: up past later
    // parents (never past a held root, which orders before every
    // entry), else down.
    const EntryCompare later;
    std::size_t hole = i;
    while (hole > 0 && later(heap_[(hole - 1) / 2], last)) {
        heap_[hole] = heap_[(hole - 1) / 2];
        hole = (hole - 1) / 2;
    }
    siftDown(hole, last);
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
    const std::function<void(const Event &)> &fn) const
{
    for (std::size_t i = rootHeld_ ? 1 : 0; i < heap_.size(); ++i)
        fn(*heap_[i].ev);
}

Event *
EventQueue::popReady()
{
    if (heap_.empty())
        return nullptr;
    const Entry top = heap_.front();
    popRoot();
    top.ev->scheduled_ = false;
    curTick_ = top.when;
    return top.ev;
}

bool
EventQueue::step()
{
    dropHeldRoot();
    Event *ev = popReady();
    if (!ev)
        return false;
    ++numProcessed_;
    ev->process();
    return true;
}

bool
EventQueue::continueWith(Event *ev, Tick when)
{
    schedule(ev, when);
    if (!inRun_ || stopRequested_ || when > runMaxTick_ || runBudget_ == 0)
        return false;
    // schedule() replaced any held root, so the new entry is next
    // exactly when it is the root.
    if (heap_.front().ev != ev)
        return false;
    --runBudget_;
    ev->scheduled_ = false;
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
        curTick_ = top.when;
        ++numProcessed_;
        rootHeld_ = true;
        // A lambda frees itself in process(); the held root's ev is never
        // read after (popRoot compares when, priority and seq only, and
        // deschedule and forEachScheduled skip the held root).
        ev->process();
        dropHeldRoot();
    }
    return curTick_;
}

EventQueue::~EventQueue()
{
    // Free the lambda events that never ran, first unhooking their
    // scheduled state (a pending one at shutdown is fine) so
    // Event::~Event doesn't see a live schedule.
    for (const Entry &entry : heap_) {
        if (auto *lambda = dynamic_cast<LambdaEvent *>(entry.ev)) {
            lambda->scheduled_ = false;
            delete lambda;
        }
    }
}

} // namespace misp
