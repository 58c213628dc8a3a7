#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>

namespace halsim {

Event::~Event()
{
    // A scheduled event must be descheduled before destruction;
    // otherwise the queue would fire a dangling pointer later.
    assert(!scheduled_ && "destroying a scheduled Event");
}

/**
 * One-shot wrapper used by scheduleFn(). Fired wrappers return to the
 * queue's freelist, so steady-state one-shot scheduling allocates
 * nothing: the wrapper is recycled and small captures live in the
 * UniqueFn's inline storage.
 */
class EventQueue::OneShot : public Event
{
  public:
    explicit OneShot(EventQueue &q) : q_(q) {}

    void arm(UniqueFn fn) { fn_ = std::move(fn); }

    void
    execute() override
    {
        // Release the wrapper before running the callable so a
        // nested scheduleFn can reuse it immediately; the callable
        // itself is already safe on the stack.
        UniqueFn fn = std::move(fn_);
        // Freelist push reuses retained capacity after warmup.
        q_.pool_.push_back(this);
        fn();
    }

  private:
    EventQueue &q_;
    UniqueFn fn_;
};

EventQueue::~EventQueue()
{
    // Orphan any still-scheduled events so their destructors don't
    // assert; delete owned one-shot wrappers.
    for (Entry &e : heap_) {
        e.ev->scheduled_ = false;
        if (dynamic_cast<OneShot *>(e.ev) != nullptr)
            delete e.ev;
    }
    for (OneShot *os : pool_)
        delete os;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    scheduleKeyed(ev, when, ++seq_);
}

void
EventQueue::scheduleKeyed(Event *ev, Tick when, std::uint64_t key)
{
    assert(ev != nullptr);
    assert(!ev->scheduled_ && "event already scheduled");
    assert(when >= now_ && "scheduling into the past");
    if (when < now_) {
        // Release builds clamp instead of time-traveling: the event
        // runs immediately-next and the counter records the bug.
        ++pastClamps_;
        when = now_;
    }

    ev->when_ = when;
    ev->seq_ = key;
    ev->scheduled_ = true;
    heapPush(Entry{when, key, ev});
}

void
EventQueue::deschedule(Event *ev)
{
    assert(ev != nullptr);
    if (!ev->scheduled_)
        return;
    // Eager removal in O(log n): the event knows its heap slot, so
    // the last entry moves into it and sifts whichever way it must.
    const std::size_t idx = ev->heapIndex_;
    assert(idx < heap_.size() && heap_[idx].ev == ev &&
           heap_[idx].seq == ev->seq_ && "heap index out of sync");
    ev->scheduled_ = false;
    ++descheduled_;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (idx == heap_.size())
        return;   // it was the last entry
    if (idx > 0 && last < heap_[(idx - 1) / kArity])
        siftUp(idx, last);
    else
        siftDown(idx, last);
}

void
EventQueue::scheduleFn(UniqueFn fn, Tick when)
{
    OneShot *os;
    if (!pool_.empty()) {
        os = pool_.back();
        pool_.pop_back();
    } else {
        // Pool-miss cold path; steady state is served from the
        // freelist.
        os = new OneShot(*this);
    }
    os->arm(std::move(fn));
    schedule(os, when);
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    const Entry top = heapPop();
    assert(top.when >= now_);
    now_ = top.when;
    curKey_ = top.seq;
    top.ev->scheduled_ = false;
    ++executed_;
    top.ev->execute();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    const std::uint64_t before = executed_;
    while (!heap_.empty() && heap_.front().when <= until)
        step();
    if (until != kTickNever && until >= now_) {
        // Every event at or before the bound has run, so the whole
        // of tick `until` counts as passed.
        now_ = until;
        curKey_ = ~std::uint64_t{0};
    }
    return executed_ - before;
}

void
EventQueue::heapPush(Entry e)
{
    // Amortized growth; capacity settles at the peak pending count.
    heap_.emplace_back();
    siftUp(heap_.size() - 1, e);
}

EventQueue::Entry
EventQueue::heapPop()
{
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0, last);
    return top;
}

void
EventQueue::siftUp(std::size_t i, Entry e)
{
    // Move parents down into the hole until e's slot is found.
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!(e < heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, e);
}

void
EventQueue::siftDown(std::size_t i, Entry e)
{
    // Move the earliest child up into the hole until e's slot is
    // found.
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first = kArity * i + 1;
        if (first >= n)
            break;
        const std::size_t end = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (heap_[c] < heap_[best])
                best = c;
        }
        if (!(heap_[best] < e))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, e);
}

} // namespace halsim
