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
    // Drop tombstones and orphan any still-scheduled events so their
    // destructors don't assert; delete owned one-shot wrappers.
    for (Entry &e : heap_) {
        if (e.ev != nullptr) {
            e.ev->scheduled_ = false;
            if (dynamic_cast<OneShot *>(e.ev) != nullptr)
                delete e.ev;
        }
    }
    for (OneShot *os : pool_)
        delete os;
}

void
EventQueue::schedule(Event *ev, Tick when)
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
    ev->seq_ = ++seq_;
    ev->scheduled_ = true;
    heapPush(Entry{when, ev->seq_, ev});
    ++live_;
}

void
EventQueue::scheduleKeyed(Event *ev, Tick when, std::uint64_t key)
{
    assert(ev != nullptr);
    assert(!ev->scheduled_ && "event already scheduled");
    assert(when >= now_ && "scheduling into the past");
    if (when < now_) {
        ++pastClamps_;
        when = now_;
    }

    ev->when_ = when;
    ev->seq_ = key;
    ev->scheduled_ = true;
    heapPush(Entry{when, key, ev});
    ++live_;
}

void
EventQueue::deschedule(Event *ev)
{
    assert(ev != nullptr);
    if (!ev->scheduled_)
        return;
    // Lazy removal in O(1): the event knows its heap slot, so
    // tombstone it in place and let pops (or compaction) reclaim it.
    const std::size_t idx = ev->heapIndex_;
    assert(idx < heap_.size() && heap_[idx].ev == ev &&
           heap_[idx].seq == ev->seq_ && "heap index out of sync");
    heap_[idx].ev = nullptr;
    ev->scheduled_ = false;
    --live_;
    ++dead_;
    ++descheduled_;
    maybeCompact();
}

void
EventQueue::maybeCompact()
{
    // Rebuilding costs O(n); triggering only when tombstones exceed
    // live entries keeps the amortized cost per deschedule constant
    // and the heap within 2x of its live size.
    constexpr std::size_t kMinSlots = 64;
    if (dead_ <= live_ || heap_.size() < kMinSlots)
        return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [](const Entry &e) {
                                   return e.ev == nullptr;
                               }),
                heap_.end());
    // Pop order is fully determined by the (when, seq) total order,
    // so rebuilding the heap cannot change execution order.
    std::make_heap(heap_.begin(), heap_.end(),
                   [](const Entry &a, const Entry &b) { return a > b; });
    for (std::size_t i = 0; i < heap_.size(); ++i)
        setIndex(i);
    dead_ = 0;
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
    while (!heap_.empty()) {
        Entry top = heapPop();
        if (top.ev == nullptr) {
            --dead_;
            continue;   // tombstone
        }
        assert(top.when >= now_);
        now_ = top.when;
        Event *ev = top.ev;
        ev->scheduled_ = false;
        --live_;
        ++executed_;
        ev->execute();
        return true;
    }
    return false;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    const std::uint64_t before = executed_;
    while (!heap_.empty()) {
        // Peek past tombstones.
        while (!heap_.empty() && heap_.front().ev == nullptr) {
            heapPop();
            --dead_;
        }
        if (heap_.empty())
            break;
        if (heap_.front().when > until) {
            if (until != kTickNever)
                now_ = until;
            return executed_ - before;
        }
        step();
    }
    if (until != kTickNever && until > now_)
        now_ = until;
    return executed_ - before;
}

void
EventQueue::heapPush(Entry e)
{
    // Amortized heap growth; compaction keeps slots within 2x of
    // live, so capacity settles.
    heap_.push_back(e);
    siftUp(heap_.size() - 1);
}

EventQueue::Entry
EventQueue::heapPop()
{
    Entry top = heap_.front();
    Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        setIndex(0);
        siftDown(0);
    }
    return top;
}

void
EventQueue::siftUp(std::size_t i)
{
    Entry e = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(heap_[parent] > e))
            break;
        heap_[i] = heap_[parent];
        setIndex(i);
        i = parent;
    }
    heap_[i] = e;
    setIndex(i);
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap_.size();
    Entry e = heap_[i];
    for (;;) {
        std::size_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && heap_[c] > heap_[c + 1])
            ++c;   // right child is earlier
        if (!(e > heap_[c]))
            break;
        heap_[i] = heap_[c];
        setIndex(i);
        i = c;
    }
    heap_[i] = e;
    setIndex(i);
}

} // namespace halsim
