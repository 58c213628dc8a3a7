/**
 * @file
 * The discrete-event queue driving all simulated components.
 */

#ifndef HALSIM_SIM_EVENT_QUEUE_HH
#define HALSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace halsim {

/**
 * Move-only type-erased callable for one-shot events. Unlike
 * std::function it accepts non-copyable captures (PacketPtr,
 * unique_ptr state), so a pending event owns what it captured and
 * queue teardown releases it — nothing in flight can leak.
 *
 * Small captures live in inline storage: every one-shot on the
 * simulator fast path (a packet pointer plus a component pointer or
 * two) fits in the buffer, so scheduling it never heap-allocates.
 * Larger or over-aligned callables fall back to the heap
 * transparently.
 */
class UniqueFn
{
  public:
    /** Inline capture capacity; sized for the datapath lambdas. */
    static constexpr std::size_t kInlineSize = 48;
    static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

    /** True when callable type @p F runs from inline storage. */
    template <typename F>
    static constexpr bool
    inlined()
    {
        return sizeof(F) <= kInlineSize && alignof(F) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<F>;
    }

    UniqueFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, UniqueFn>>>
    UniqueFn(F fn)
    {
        using Fn = std::remove_cvref_t<F>;
        if constexpr (inlined<Fn>()) {
            ::new (storage_) Fn(std::move(fn));
            vt_ = &Ops<Fn, true>::vt;
        } else {
            Fn *p = new Fn(std::move(fn));
            std::memcpy(storage_, &p, sizeof(p));
            vt_ = &Ops<Fn, false>::vt;
        }
    }

    UniqueFn(UniqueFn &&o) noexcept : vt_(o.vt_)
    {
        if (vt_ != nullptr) {
            vt_->relocate(o.storage_, storage_);
            o.vt_ = nullptr;
        }
    }

    UniqueFn &
    operator=(UniqueFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            vt_ = o.vt_;
            if (vt_ != nullptr) {
                vt_->relocate(o.storage_, storage_);
                o.vt_ = nullptr;
            }
        }
        return *this;
    }

    UniqueFn(const UniqueFn &) = delete;
    UniqueFn &operator=(const UniqueFn &) = delete;

    ~UniqueFn() { reset(); }

    void operator()() { vt_->call(storage_); }

    explicit operator bool() const { return vt_ != nullptr; }

    /** Destroy the held callable (and any captures), if any. */
    void
    reset()
    {
        if (vt_ != nullptr) {
            vt_->destroy(storage_);
            vt_ = nullptr;
        }
    }

  private:
    struct VTable
    {
        void (*call)(void *storage);
        /** Move into @p dst's storage and destroy the source. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *storage) noexcept;
    };

    template <typename F, bool Inline>
    struct Ops;

    template <typename F>
    struct Ops<F, true>
    {
        static F *
        get(void *s)
        {
            return std::launder(reinterpret_cast<F *>(s));
        }

        static void call(void *s) { (*get(s))(); }

        static void
        relocate(void *src, void *dst) noexcept
        {
            ::new (dst) F(std::move(*get(src)));
            get(src)->~F();
        }

        static void destroy(void *s) noexcept { get(s)->~F(); }

        static constexpr VTable vt{&call, &relocate, &destroy};
    };

    template <typename F>
    struct Ops<F, false>
    {
        static F *
        get(void *s)
        {
            F *p;
            std::memcpy(&p, s, sizeof(p));
            return p;
        }

        static void call(void *s) { (*get(s))(); }

        static void
        relocate(void *src, void *dst) noexcept
        {
            std::memcpy(dst, src, sizeof(F *));
        }

        static void destroy(void *s) noexcept { delete get(s); }

        static constexpr VTable vt{&call, &relocate, &destroy};
    };

    alignas(kInlineAlign) unsigned char storage_[kInlineSize];
    const VTable *vt_ = nullptr;
};

/**
 * Event queue with deterministic same-tick ordering: a 4-ary heap
 * plus a few lanes for pinned events.
 *
 * Events scheduled at the same tick execute in schedule order (FIFO),
 * which keeps runs bit-reproducible regardless of queue internals.
 * Ordering is the total order (when, key) where a key is reserved at
 * schedule time. Keys can also be reserved up front (reserveKey) and
 * attached later (scheduleKeyed): a component holding a FIFO of
 * timed work keeps only its head in the queue yet preserves exactly
 * the order it would have had with one queue entry per item — the
 * contract TimedChannel builds on.
 *
 * Most events live in the heap. Removal is eager: each event knows
 * its heap slot, so deschedule() moves the last entry into the freed
 * slot and sifts it, and the heap holds exactly the live events. A
 * 4-ary heap is half as deep as a binary one and a node's children
 * share a cache line or two.
 *
 * A handful of events fire about once per simulated frame: each
 * channel's head and each traffic source's emit. Their owners pin
 * them (pin()), and a pinned event's pending entry lives in a fixed
 * lane slot instead of the heap. Scheduling it writes the slot in
 * O(1), and each step takes the earlier of the heap top and the
 * earliest lane. The queue keeps the earliest lane's index; a
 * fixed-length branch-free scan finds it again after that lane pops
 * or is removed. The order is the same (when, key) total order either
 * way, so pinning changes host cost, never results. When every lane
 * is taken, pin() declines and the event stays on the heap.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p ev to execute at absolute tick @p when.
     * @pre !ev->scheduled() and when >= now().
     */
    void schedule(Event *ev, Tick when);

    /**
     * Reserve the next position in the same-tick total order without
     * scheduling anything. Pass the key to scheduleKeyed() later; the
     * event then executes exactly where a schedule() issued at the
     * reservation point would have.
     */
    std::uint64_t reserveKey() { return ++seq_; }

    /** Schedule @p ev at @p when under a previously reserved @p key. */
    void scheduleKeyed(Event *ev, Tick when, std::uint64_t key);

    /**
     * True when execution has reached position (@p when, @p key) of
     * the total order: an event scheduled there under a key reserved
     * before this call would already have run (or be running now).
     * Lets a component that keeps timed work off the heap tell which
     * of its items a per-item event would already have consumed.
     */
    bool
    passed(Tick when, std::uint64_t key) const
    {
        return when < now_ || (when == now_ && key <= curKey_);
    }

    /** Schedule @p ev @p delta ticks from now. */
    void
    scheduleIn(Event *ev, Tick delta)
    {
        schedule(ev, now_ + delta);
    }

    /** Remove a pending event; no-op if not scheduled. */
    void deschedule(Event *ev);

    /** Lanes per queue: pinned events beyond this stay on the heap. */
    static constexpr std::size_t kLanes = 8;

    /**
     * Give @p ev a lane for as long as it lives or until unpin(). Its
     * owner must call unpin() before @p ev is destroyed.
     * @pre !ev->scheduled() and !ev->pinned()
     * @return false when every lane is taken; @p ev then uses the heap
     */
    bool pin(Event *ev);

    /**
     * Release @p ev's lane; no-op if it holds none. A pending entry
     * moves to the heap and keeps its (when, key) position.
     */
    void unpin(Event *ev);

    /** Deschedule if pending, then schedule at @p when. */
    void
    reschedule(Event *ev, Tick when)
    {
        if (ev->scheduled())
            deschedule(ev);
        schedule(ev, when);
    }

    /**
     * Schedule a one-shot callable at absolute tick @p when. The
     * wrapper event is owned by the queue and freed after it fires
     * (or at queue teardown, releasing anything it captured).
     */
    void scheduleFn(UniqueFn fn, Tick when);

    /** Schedule a one-shot callable @p delta ticks from now. */
    void
    scheduleFnIn(UniqueFn fn, Tick delta)
    {
        scheduleFn(std::move(fn), now_ + delta);
    }

    /** True when no events remain. */
    bool empty() const { return size() == 0; }

    /** Number of scheduled events, in the heap or in lanes. */
    std::size_t size() const { return heap_.size() + lanePending_; }

    /**
     * Execute the single next event, advancing time to it.
     * @retval true an event was executed
     * @retval false the queue was empty
     */
    bool step();

    /**
     * Run until the queue drains or simulated time would pass
     * @p until. Events at exactly @p until still execute; time ends
     * clamped to @p until when the queue still has later events.
     * @return number of events executed
     */
    std::uint64_t runUntil(Tick until);

    /** Run until the queue is empty. @return events executed. */
    std::uint64_t run() { return runUntil(kTickNever); }

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Scheduled events removed by deschedule() over the queue's
     * lifetime (no-op calls do not count). Every schedule ends
     * executed, descheduled or still pending, so schedules =
     * executed() + descheduled() + size().
     */
    std::uint64_t descheduled() const { return descheduled_; }

    /**
     * Entries pushed onto the heap over the queue's lifetime: the
     * schedules of unpinned events, plus pending entries that unpin()
     * moved there. Schedules into a lane do not count.
     */
    std::uint64_t heapPushes() const { return heapPushes_; }

    /**
     * Events clamped to now() by the release-mode guard in
     * schedule(); nonzero means a component computed a past tick.
     */
    std::uint64_t pastClamps() const { return pastClamps_; }

    // --- introspection (tests + perfbench) ---------------------------

    /** Idle one-shot wrappers currently held for reuse. */
    std::size_t poolSize() const { return pool_.size(); }

    /**
     * Heap and lane slots holding a pending entry; removal is eager,
     * so always size().
     */
    std::size_t heapSlots() const { return heap_.size() + lanePending_; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *ev;

        /** Strictly earlier in the (when, seq) total order. */
        bool
        operator<(const Entry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Heap arity: children of slot i are kArity*i+1 .. kArity*i+kArity. */
    static constexpr std::size_t kArity = 4;

    /** A lane's (when, key) as one integer that compares in order. */
    using LaneKey = unsigned __int128;

    /** Key of an idle lane, free or pinned but not pending: it never
     *  wins the scan, since no schedule reserves the all-ones key. */
    static constexpr LaneKey kIdleLane = ~LaneKey{0};

    static LaneKey
    laneKey(Tick when, std::uint64_t key)
    {
        return (LaneKey{when} << 64) | key;
    }

    /** One-shot wrapper for scheduleFn(), recycled via pool_. */
    class OneShot;
    friend class OneShot;

    /** Point laneFirst_ at the earliest lane. */
    void findFirstLane();

    /** Execute the next event if it is due by @p until. */
    bool stepUntil(Tick until);

    void heapPush(Entry e);
    Entry heapPop();
    void siftUp(std::size_t i, Entry e);
    void siftDown(std::size_t i, Entry e);

    /** Store @p e at slot @p i and record the slot in its event. */
    void
    place(std::size_t i, const Entry &e)
    {
        heap_[i] = e;
        e.ev->heapIndex_ = i;
    }

    std::vector<Entry> heap_;
    /** Pending (when, key) per lane; lanes [0, lanesClaimed_) are
     *  pinned to laneEv_ and the rest are free. */
    LaneKey laneKeys_[kLanes];
    Event *laneEv_[kLanes] = {};
    std::size_t lanesClaimed_ = 0;
    std::size_t lanePending_ = 0;
    /** A lane holding the least key: every schedule into a lane
     *  compares against it, and it is found again by a scan only when
     *  that lane pops or is removed, or a lane is released. */
    std::size_t laneFirst_ = 0;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t curKey_ = 0;   //!< running event's key, or ~0
    std::uint64_t executed_ = 0;
    std::uint64_t descheduled_ = 0;
    std::uint64_t heapPushes_ = 0;
    std::uint64_t pastClamps_ = 0;
    std::vector<OneShot *> pool_;
};

} // namespace halsim

#endif // HALSIM_SIM_EVENT_QUEUE_HH
