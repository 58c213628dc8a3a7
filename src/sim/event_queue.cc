#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace halsim {

Event::~Event()
{
    // A scheduled event must be descheduled before destruction;
    // otherwise the queue would fire a dangling pointer later. A
    // pinned one must be unpinned, or its lane would keep the pointer.
    assert(!scheduled_ && "destroying a scheduled Event");
    assert(!pinned() && "destroying a pinned Event");
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

EventQueue::EventQueue()
{
    static_assert(kLanes < Event::kNoLane,
                  "a lane index must fit Event::lane_");
    std::fill(std::begin(laneKeys_), std::end(laneKeys_), kIdleLane);
}

EventQueue::~EventQueue()
{
    // Orphan any still-scheduled or pinned events so their destructors
    // don't assert or reach back into this queue; delete owned one-shot
    // wrappers (never pinned: pin() takes only caller-owned events).
    for (std::size_t i = 0; i < lanesClaimed_; ++i) {
        laneEv_[i]->scheduled_ = false;
        laneEv_[i]->lane_ = Event::kNoLane;
    }
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
    assert(key != ~std::uint64_t{0} && "the all-ones key marks idle lanes");
    if (when < now_) {
        // Release builds clamp instead of time-traveling: the event
        // runs immediately-next and the counter records the bug.
        ++pastClamps_;
        when = now_;
    }

    ev->when_ = when;
    ev->seq_ = key;
    ev->scheduled_ = true;
    if (ev->pinned()) {
        const LaneKey k = laneKey(when, key);
        laneKeys_[ev->lane_] = k;
        ++lanePending_;
        if (k < laneKeys_[laneFirst_])
            laneFirst_ = ev->lane_;
    } else {
        heapPush(Entry{when, key, ev});
    }
}

void
EventQueue::deschedule(Event *ev)
{
    assert(ev != nullptr);
    if (!ev->scheduled_)
        return;
    if (ev->pinned()) {
        ev->scheduled_ = false;
        ++descheduled_;
        laneKeys_[ev->lane_] = kIdleLane;
        --lanePending_;
        if (ev->lane_ == laneFirst_)
            findFirstLane();
        return;
    }
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

bool
EventQueue::pin(Event *ev)
{
    assert(ev != nullptr);
    assert(!ev->scheduled_ && !ev->pinned() && "pin an idle, unpinned event");
    if (lanesClaimed_ == kLanes || ev->scheduled_ || ev->pinned())
        return false;
    ev->lane_ = static_cast<std::uint8_t>(lanesClaimed_);
    laneEv_[lanesClaimed_++] = ev;
    return true;
}

void
EventQueue::unpin(Event *ev)
{
    assert(ev != nullptr);
    if (!ev->pinned())
        return;
    const std::size_t lane = ev->lane_;
    assert(lane < lanesClaimed_ && laneEv_[lane] == ev &&
           "lane index out of sync");
    const bool pending = ev->scheduled_;
    // Keep the claimed lanes contiguous: the last one moves into the
    // freed slot and its event learns its new index.
    const std::size_t last = --lanesClaimed_;
    laneKeys_[lane] = laneKeys_[last];
    laneEv_[lane] = laneEv_[last];
    laneEv_[lane]->lane_ = static_cast<std::uint8_t>(lane);
    laneKeys_[last] = kIdleLane;
    laneEv_[last] = nullptr;
    ev->lane_ = Event::kNoLane;
    findFirstLane();
    if (pending) {
        --lanePending_;
        heapPush(Entry{ev->when_, ev->seq_, ev});
    }
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
    return stepUntil(kTickNever);
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    const std::uint64_t before = executed_;
    while (stepUntil(until)) {
    }
    if (until != kTickNever && until >= now_) {
        // Every event at or before the bound has run, so the whole
        // of tick `until` counts as passed.
        now_ = until;
        curKey_ = ~std::uint64_t{0};
    }
    return executed_ - before;
}

void
EventQueue::findFirstLane()
{
    // A fixed-length scan the compiler keeps branch-free; idle lanes
    // hold kIdleLane and never win.
    std::size_t lane = 0;
    LaneKey first = laneKeys_[0];
    for (std::size_t i = 1; i < kLanes; ++i) {
        const bool earlier = laneKeys_[i] < first;
        first = earlier ? laneKeys_[i] : first;
        lane = earlier ? i : lane;
    }
    laneFirst_ = lane;
}

bool
EventQueue::stepUntil(Tick until)
{
    const std::size_t lane = laneFirst_;
    const LaneKey first = laneKeys_[lane];

    Event *ev;
    if (!heap_.empty() &&
        laneKey(heap_.front().when, heap_.front().seq) < first) {
        if (heap_.front().when > until)
            return false;
        const Entry top = heapPop();
        assert(top.when >= now_);
        now_ = top.when;
        curKey_ = top.seq;
        ev = top.ev;
    } else {
        const Tick when = static_cast<Tick>(first >> 64);
        if (first == kIdleLane || when > until)
            return false;
        assert(when >= now_);
        now_ = when;
        curKey_ = static_cast<std::uint64_t>(first);
        laneKeys_[lane] = kIdleLane;
        --lanePending_;
        ev = laneEv_[lane];
        // The next lane minimum is not needed until the next step, so
        // the scan overlaps the event's own work.
        findFirstLane();
    }
    ev->scheduled_ = false;
    ++executed_;
    ev->execute();
    return true;
}

void
EventQueue::heapPush(Entry e)
{
    // Amortized growth; capacity settles at the peak pending count.
    ++heapPushes_;
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
