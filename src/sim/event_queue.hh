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
 * 4-ary-heap event queue with deterministic same-tick ordering.
 *
 * Events scheduled at the same tick execute in schedule order (FIFO),
 * which keeps runs bit-reproducible regardless of heap internals.
 * Removal is eager: each event knows its heap slot, so deschedule()
 * moves the last entry into the freed slot and sifts it, and the heap
 * holds exactly the live events. A 4-ary heap is half as deep as a
 * binary one and a node's children share a cache line or two, which
 * is what the pop-dominated simulator loop pays for.
 *
 * Ordering is the total order (when, key) where a key is reserved at
 * schedule time. Keys can also be reserved up front (reserveKey) and
 * attached later (scheduleKeyed): a component holding a FIFO of
 * timed work keeps only its head in the heap yet preserves exactly
 * the order it would have had with one heap entry per item — the
 * contract TimedChannel builds on.
 */
class EventQueue
{
  public:
    EventQueue() = default;
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
    bool empty() const { return heap_.empty(); }

    /** Number of scheduled events. */
    std::size_t size() const { return heap_.size(); }

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
     * lifetime (no-op calls do not count). Every schedule pushes one
     * heap entry, so heap pushes = executed() + descheduled() + size().
     */
    std::uint64_t descheduled() const { return descheduled_; }

    /**
     * Events clamped to now() by the release-mode guard in
     * schedule(); nonzero means a component computed a past tick.
     */
    std::uint64_t pastClamps() const { return pastClamps_; }

    // --- introspection (tests + perfbench) ---------------------------

    /** Idle one-shot wrappers currently held for reuse. */
    std::size_t poolSize() const { return pool_.size(); }

    /** Heap slots in use; removal is eager, so always size(). */
    std::size_t heapSlots() const { return heap_.size(); }

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

    /** One-shot wrapper for scheduleFn(), recycled via pool_. */
    class OneShot;
    friend class OneShot;

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
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t curKey_ = 0;   //!< running event's key, or ~0
    std::uint64_t executed_ = 0;
    std::uint64_t descheduled_ = 0;
    std::uint64_t pastClamps_ = 0;
    std::vector<OneShot *> pool_;
};

} // namespace halsim

#endif // HALSIM_SIM_EVENT_QUEUE_HH
