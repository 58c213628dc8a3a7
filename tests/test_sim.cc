/**
 * @file
 * Event queue ordering/determinism, statistics primitives, and RNG
 * distribution sanity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/keyed_fifo.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

using namespace halsim;

TEST(Types, TransferTicks)
{
    // 1500 B at 100 Gbps = 120 ns.
    EXPECT_EQ(transferTicks(1500, 100.0), 120 * kNs);
    // 64 B at 100 Gbps = 5.12 ns = 5120 ps.
    EXPECT_EQ(transferTicks(64, 100.0), 5120u);
    EXPECT_EQ(transferTicks(0, 100.0), 0u);
    // Sub-tick transfers round up to 1 so time advances.
    EXPECT_GE(transferTicks(1, 1e9), 1u);
}

TEST(Types, GbpsInverse)
{
    const Tick t = transferTicks(123456, 73.5);
    EXPECT_NEAR(gbps(123456, t), 73.5, 0.01);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleFn([&] { order.push_back(3); }, 300);
    eq.scheduleFn([&] { order.push_back(1); }, 100);
    eq.scheduleFn([&] { order.push_back(2); }, 200);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleFn([&order, i] { order.push_back(i); }, 500);
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, RunUntilStopsAndClampsTime)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFn([&] { ++fired; }, 100);
    eq.scheduleFn([&] { ++fired; }, 900);
    const auto n = eq.runUntil(500);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 500u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleFnIn(recurse, 10);
    };
    eq.scheduleFn(recurse, 0);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, DescheduleCancels)
{
    EventQueue eq;
    bool fired = false;
    CallbackEvent ev([&] { fired = true; });
    eq.schedule(&ev, 100);
    EXPECT_TRUE(ev.scheduled());
    eq.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RescheduleMoves)
{
    EventQueue eq;
    Tick firedAt = 0;
    CallbackEvent ev([&] { firedAt = eq.now(); });
    eq.schedule(&ev, 100);
    eq.reschedule(&ev, 250);
    eq.run();
    EXPECT_EQ(firedAt, 250u);
}

TEST(UniqueFn, SmallCapturesAreInline)
{
    // The datapath one-shots capture a packet pointer plus a couple
    // of component pointers; all of them must avoid the heap.
    struct LinkHop
    {
        void *self;
        void *raw;
        void operator()() {}
    };
    struct FinishHop
    {
        void *self;
        std::unique_ptr<int> owned;
        void operator()() {}
    };
    static_assert(UniqueFn::inlined<LinkHop>());
    static_assert(UniqueFn::inlined<FinishHop>());

    // And an inline callable still runs (and moves) correctly.
    int hits = 0;
    UniqueFn fn([&hits] { ++hits; });
    UniqueFn moved(std::move(fn));
    moved();
    EXPECT_EQ(hits, 1);
}

TEST(UniqueFn, LargeCapturesFallBackToHeap)
{
    struct Big
    {
        char blob[128];
        int *counter;
        void operator()() { ++*counter; }
    };
    static_assert(!UniqueFn::inlined<Big>());
    int hits = 0;
    Big big{};
    big.counter = &hits;
    UniqueFn fn(big);
    UniqueFn moved(std::move(fn));
    moved();
    EXPECT_EQ(hits, 1);
}

TEST(EventQueue, OneShotWrappersAreRecycled)
{
    EventQueue eq;
    int fired = 0;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            eq.scheduleFnIn([&fired] { ++fired; }, i + 1);
        eq.run();
    }
    EXPECT_EQ(fired, 30);
    // Steady state: at most as many wrappers exist as were ever
    // simultaneously pending, and they all sit idle in the pool now.
    EXPECT_LE(eq.poolSize(), 10u);
    EXPECT_GE(eq.poolSize(), 1u);
}

TEST(EventQueue, HeapHoldsOnlyLiveEventsUnderChurn)
{
    // A rate-limiter retimer pattern: events that constantly
    // reschedule. Removal is eager, so the heap never holds more
    // slots than live events, however many moves there were.
    EventQueue eq;
    constexpr int kEvents = 32;
    std::vector<std::unique_ptr<CallbackEvent>> evs;
    Rng rng(3);
    for (int i = 0; i < kEvents; ++i)
        evs.push_back(std::make_unique<CallbackEvent>());

    std::uint64_t moves = 0;
    std::size_t maxSlots = 0;
    CallbackEvent churn;
    churn.setCallback([&] {
        for (auto &ev : evs) {
            eq.reschedule(ev.get(),
                          eq.now() + 1000 + (rng.next() & 255));
            EXPECT_EQ(eq.heapSlots(), eq.size());
        }
        maxSlots = std::max(maxSlots, eq.heapSlots());
        if (++moves < 2000)
            eq.scheduleIn(&churn, 10);
        else
            for (auto &ev : evs)
                eq.deschedule(ev.get());
    });
    for (auto &ev : evs)
        eq.scheduleIn(ev.get(), 1000);
    eq.scheduleIn(&churn, 1);
    eq.run();

    // 2000 churn rounds x 32 reschedules = 64k removals; the heap
    // held at most the 32 events plus the churn timer itself.
    EXPECT_EQ(moves, 2000u);
    EXPECT_LE(maxSlots, static_cast<std::size_t>(kEvents) + 1);
    EXPECT_LE(eq.heapSlots(), 4u * kEvents + 64u);
    EXPECT_EQ(eq.heapSlots(), 0u);
    EXPECT_EQ(eq.descheduled(), 2000u * kEvents + kEvents);
}

TEST(EventQueue, DescheduledCountsLiveRemovalsOnly)
{
    // Every schedule pushes one heap entry, which ends executed,
    // descheduled or still pending: the identity behind the engine
    // cost ratchet's heap-push figure.
    EventQueue eq;
    std::uint64_t schedules = 0;
    auto expectCounts = [&](std::uint64_t descheduled) {
        EXPECT_EQ(eq.descheduled(), descheduled);
        EXPECT_EQ(schedules,
                  eq.executed() + eq.descheduled() + eq.size());
    };

    CallbackEvent a([] {});
    CallbackEvent b([] {});
    eq.deschedule(&a);   // not scheduled: a no-op, not counted
    expectCounts(0);

    eq.schedule(&a, 10);
    eq.scheduleKeyed(&b, 10, eq.reserveKey());
    eq.scheduleFn([] {}, 5);
    schedules += 3;
    expectCounts(0);

    eq.deschedule(&a);
    expectCounts(1);
    eq.deschedule(&a);   // already removed
    expectCounts(1);

    eq.reschedule(&b, 30);   // pending: deschedule + schedule
    ++schedules;
    expectCounts(2);
    eq.reschedule(&a, 40);   // idle: schedule only
    ++schedules;
    expectCounts(2);

    eq.runUntil(20);
    EXPECT_EQ(eq.executed(), 1u);
    expectCounts(2);

    // Removal is eager: each deschedule frees its heap slot at once.
    std::vector<std::unique_ptr<CallbackEvent>> evs;
    for (int i = 0; i < 80; ++i) {
        evs.push_back(std::make_unique<CallbackEvent>([] {}));
        eq.schedule(evs.back().get(), 100 + i);
        ++schedules;
    }
    expectCounts(2);
    const std::size_t slots = eq.heapSlots();
    for (int i = 0; i < 60; ++i) {
        eq.deschedule(evs[i].get());
        expectCounts(3 + i);
        EXPECT_EQ(eq.heapSlots(), slots - (i + 1));
        EXPECT_EQ(eq.heapSlots(), eq.size());
    }

    eq.run();
    EXPECT_TRUE(eq.empty());
    expectCounts(62);
}

TEST(KeyedFifo, GrowsWhileWrappedAndKeepsOrder)
{
    // Wrap the head around the initial ring, then grow it: the copy
    // must unroll the wrapped entries in FIFO order.
    KeyedFifo<int> f;
    int pushed = 0;
    int popped = 0;
    for (; pushed < 6; ++pushed)
        f.push({static_cast<Tick>(pushed), 100u + pushed, pushed});
    for (; popped < 5; ++popped)
        EXPECT_EQ(f.pop().payload, popped);
    for (; pushed < 40; ++pushed)
        f.push({static_cast<Tick>(pushed), 100u + pushed, pushed});
    ASSERT_EQ(f.size(), 35u);
    for (std::size_t i = 0; i < f.size(); ++i) {
        EXPECT_EQ(f.at(i).payload, popped + static_cast<int>(i));
        EXPECT_EQ(f.at(i).key, 100u + popped + i);
    }
    EXPECT_EQ(f.back().when, 39u);
    while (!f.empty())
        EXPECT_EQ(f.pop().payload, popped++);
    EXPECT_EQ(popped, 40);
}

TEST(ParallelFor, CoversAllIndicesOnceAnyThreadCount)
{
    for (unsigned threads : {0u, 1u, 2u, 5u}) {
        std::vector<int> hits(997, 0);
        parallelFor(hits.size(), threads,
                    [&](std::size_t i) { hits[i]++; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "i=" << i << " threads=" << threads;
    }
}

TEST(ParallelFor, BudgetCapsInvocationsAcrossConcurrentCallers)
{
    // Two callers ask for four workers each; with a budget of two, at
    // most two invocations run at once in the whole process.
    setParallelBudget(2);
    std::atomic<int> running{0};
    std::atomic<int> peak{0};
    std::vector<int> hits(64, 0);
    const auto body = [&](std::size_t i) {
        const int now = ++running;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        for (int spin = 0; spin < 2000; ++spin)
            std::this_thread::yield();
        hits[i]++;
        --running;
    };
    std::thread first([&] { parallelFor(32, 4, body); });
    std::thread second([&] {
        setParallelRank(1);
        parallelFor(32, 4, [&](std::size_t i) { body(32 + i); });
    });
    first.join();
    second.join();
    setParallelBudget(0);
    EXPECT_LE(peak.load(), 2);
    EXPECT_GE(peak.load(), 1);
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "i=" << i;
}

TEST(ParallelFor, PropagatesFirstException)
{
    EXPECT_THROW(
        parallelFor(64, 4,
                    [](std::size_t i) {
                        if (i == 13)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(EventQueue, RecurringEventReschedulesItself)
{
    EventQueue eq;
    int count = 0;
    CallbackEvent tick;
    tick.setCallback([&] {
        if (++count < 4)
            eq.scheduleIn(&tick, 1000);
    });
    eq.scheduleIn(&tick, 1000);
    eq.run();
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.now(), 4000u);
}

TEST(EventQueue, StepAfterDescheduledRootRunsNext)
{
    // Descheduling the root removes it at once: the next step runs
    // the following event and nothing is left behind.
    EventQueue eq;
    CallbackEvent a([] {});
    eq.schedule(&a, 10);
    eq.scheduleFn([] {}, 20);
    eq.deschedule(&a);
    EXPECT_EQ(eq.heapSlots(), 1u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.executed(), 1u);
    EXPECT_EQ(eq.heapSlots(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ReservedKeyKeepsReservationOrder)
{
    // A key reserved early but scheduled late must still run where
    // the reservation point dictates among same-tick events.
    EventQueue eq;
    std::vector<int> order;
    const std::uint64_t early = eq.reserveKey();
    eq.scheduleFn([&order] { order.push_back(2); }, 50);
    CallbackEvent first([&order] { order.push_back(1); });
    eq.scheduleKeyed(&first, 50, early);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, PassedTracksExecutionPosition)
{
    // passed(when, key) says whether an event at that position of the
    // (tick, key) order would already have run: what a link asks of
    // the frames it keeps off the heap.
    EventQueue eq;
    const std::uint64_t before = eq.reserveKey();
    CallbackEvent probe;
    eq.schedule(&probe, 50);   // takes the next key
    const std::uint64_t own = before + 1;
    const std::uint64_t after = eq.reserveKey();
    EXPECT_FALSE(eq.passed(50, before));
    probe.setCallback([&] {
        EXPECT_TRUE(eq.passed(49, after));
        EXPECT_TRUE(eq.passed(50, before));
        EXPECT_TRUE(eq.passed(50, own));     // running now
        EXPECT_FALSE(eq.passed(50, after));  // later on this tick
        EXPECT_FALSE(eq.passed(51, 0));
    });
    eq.scheduleFn([] {}, 200);
    EXPECT_EQ(eq.runUntil(100), 1u);
    // Every event up to the bound has run, so all of tick 100 has
    // passed for keys reserved so far; tick 101 has not.
    EXPECT_TRUE(eq.passed(100, after));
    EXPECT_FALSE(eq.passed(101, 0));
}

TEST(EventQueue, RunUntilClampsTimeOnDrain)
{
    // Time reaches the bound even when the queue runs dry before it,
    // so back-to-back windows never see the clock lag.
    EventQueue eq;
    eq.scheduleFn([] {}, 10);
    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(eq.now(), Tick{100});
    EXPECT_EQ(eq.runUntil(250), 0u);
    EXPECT_EQ(eq.now(), Tick{250});
}

namespace {

/**
 * Drives an EventQueue and a reference std::set of (when, key) with
 * the same seeded operations. Every execution must be the reference
 * minimum, and the heap and lanes must hold exactly the live events
 * throughout.
 *
 * The first kPinnable events compete for the queue's lanes: more of
 * them than there are lanes, so some pins fall back to the heap. Half
 * of all schedules pick among them, and they are pinned and unpinned
 * (pending or idle, from any lane) as the run goes.
 */
class QueueDifferential
{
  public:
    static constexpr int kEvents = 256;
    static constexpr int kPinnable =
        static_cast<int>(EventQueue::kLanes) + 4;

    explicit QueueDifferential(std::uint64_t seed) : rng_(seed)
    {
        for (int i = 0; i < kEvents; ++i) {
            evs_.push_back(std::make_unique<CallbackEvent>());
            evs_.back()->setCallback([this, i] { fired(i); });
        }
        pos_.assign(kEvents, ref_.end());
        reserved_.assign(kEvents, 0);
        for (int i = 0; i < kPinnable; ++i) {
            EXPECT_EQ(eq_.pin(evs_[i].get()),
                      i < static_cast<int>(EventQueue::kLanes));
            EXPECT_EQ(evs_[i]->pinned(),
                      i < static_cast<int>(EventQueue::kLanes));
        }
    }

    void
    run(int ops)
    {
        for (int i = 0; i < ops; ++i) {
            topLevelOp();
            checkSizes();
        }
        eq_.run();
        EXPECT_TRUE(ref_.empty());
        checkSizes();
    }

    std::uint64_t fired() const { return fired_; }
    std::uint64_t nested() const { return nested_; }
    std::size_t maxSize() const { return maxSize_; }
    std::uint64_t removals(int kind) const { return removals_[kind]; }
    std::uint64_t laneFires() const { return laneFires_; }
    std::uint64_t laneRemovals() const { return laneRemovals_; }
    std::uint64_t pendingUnpins() const { return pendingUnpins_; }

  private:
    struct Ref
    {
        Tick when;
        std::uint64_t key;
        int id;   //!< event index, or kEvents + n for the nth one-shot

        bool
        operator<(const Ref &o) const
        {
            return when != o.when ? when < o.when : key < o.key;
        }
    };
    using RefSet = std::set<Ref>;

    /**
     * Mostly within 30 ticks on a coarse grid (same-tick ties), now
     * and then far ahead, so removals leave holes that the moved last
     * entry must fill by sifting either way.
     */
    Tick
    soon()
    {
        if (rng_.uniformInt(4) == 0)
            return eq_.now() + 10 * rng_.uniformInt(100);
        return eq_.now() + 10 * rng_.uniformInt(4);
    }

    void
    checkSizes()
    {
        ASSERT_EQ(eq_.heapSlots(), eq_.size());
        ASSERT_EQ(eq_.size(), ref_.size());
        maxSize_ = std::max(maxSize_, ref_.size());
        // The queue knows a lane entry is pending, and one at a later
        // tick has not been passed. (A key reserved earlier may be
        // attached at the current tick behind the running event.)
        for (int i = 0; i < kPinnable; ++i) {
            if (!evs_[i]->pinned() || pos_[i] == ref_.end())
                continue;
            ASSERT_TRUE(evs_[i]->scheduled());
            ASSERT_EQ(evs_[i]->when(), pos_[i]->when);
            if (pos_[i]->when > eq_.now()) {
                ASSERT_FALSE(eq_.passed(pos_[i]->when, pos_[i]->key));
            }
        }
    }

    void
    fired(int id)
    {
        ASSERT_FALSE(ref_.empty());
        const Ref top = *ref_.begin();
        ASSERT_EQ(top.id, id) << "executed out of (when, key) order";
        ASSERT_EQ(top.when, eq_.now());
        EXPECT_TRUE(eq_.passed(top.when, top.key));
        ref_.erase(ref_.begin());
        if (!ref_.empty()) {
            const Ref &next = *ref_.begin();
            EXPECT_FALSE(eq_.passed(next.when, next.key));
        }
        if (id < kEvents)
            pos_[id] = ref_.end();
        ++fired_;
        if (id < kEvents && evs_[id]->pinned()) {
            ++laneFires_;
            // Re-arm from inside execute(), as a channel head does.
            if (rng_.uniformInt(2) == 0) {
                const Tick when = soon();
                eq_.schedule(evs_[id].get(), when);
                add(id, when, ++seq_);
            }
        }
        // Events scheduled (or removed) from inside execute().
        if (rng_.uniformInt(3) == 0) {
            ++nested_;
            mutateOp();
        }
        checkSizes();
    }

    /**
     * An idle callback event with no key reserved, or -1; half of the
     * picks start among the pinnable events.
     */
    int
    idleEvent()
    {
        const int start = static_cast<int>(
            rng_.uniformInt(rng_.uniformInt(2) == 0 ? kPinnable : kEvents));
        for (int k = 0; k < kEvents; ++k) {
            const int i = (start + k) % kEvents;
            if (pos_[i] == ref_.end() && reserved_[i] == 0)
                return i;
        }
        return -1;
    }

    void
    add(int id, Tick when, std::uint64_t key)
    {
        const auto it = ref_.insert(Ref{when, key, id}).first;
        if (id < kEvents)
            pos_[id] = it;
    }

    void
    removeRef(int i)
    {
        ref_.erase(pos_[i]);
        pos_[i] = ref_.end();
    }

    /** Deschedule the pending callback event nearest @p it. */
    void
    descheduleAt(RefSet::iterator it, int kind)
    {
        // One-shots cannot be descheduled; walk to a callback event.
        for (; it != ref_.end(); ++it) {
            if (it->id < kEvents) {
                const int i = it->id;
                if (evs_[i]->pinned())
                    ++laneRemovals_;
                removeRef(i);
                eq_.deschedule(evs_[i].get());
                ++removals_[kind];
                return;
            }
        }
    }

    /**
     * Unpin a random pinned event, pending or idle, from whichever
     * lane it holds (the last lane moves into the freed one); or pin
     * an idle pinnable event when a lane is free.
     */
    void
    repinOp()
    {
        const int i = static_cast<int>(rng_.uniformInt(kPinnable));
        CallbackEvent *ev = evs_[i].get();
        if (ev->pinned()) {
            if (ev->scheduled())
                ++pendingUnpins_;
            eq_.unpin(ev);
            ASSERT_FALSE(ev->pinned());
        } else if (!ev->scheduled()) {
            eq_.pin(ev);
        }
    }

    void
    mutateOp()
    {
        // Adds outweigh removals, so the heap grows several levels
        // deep before steps drain it.
        switch (rng_.uniformInt(13)) {
          case 0:
          case 8:
          case 9:
          case 10:
          case 11: {   // schedule
            const int i = idleEvent();
            if (i < 0)
                break;
            const Tick when = soon();
            eq_.schedule(evs_[i].get(), when);
            add(i, when, ++seq_);
            break;
          }
          case 1: {   // reserve a key now, attach it later
            const int i = idleEvent();
            if (i < 0)
                break;
            reserved_[i] = eq_.reserveKey();
            ASSERT_EQ(reserved_[i], ++seq_);
            break;
          }
          case 2: {   // attach a reservation
            for (int i = 0; i < kEvents; ++i) {
                if (reserved_[i] == 0)
                    continue;
                const Tick when = soon();
                eq_.scheduleKeyed(evs_[i].get(), when, reserved_[i]);
                add(i, when, reserved_[i]);
                reserved_[i] = 0;
                break;
            }
            break;
          }
          case 3: {   // reschedule, pending or idle
            const int i = static_cast<int>(rng_.uniformInt(kEvents));
            if (reserved_[i] != 0)
                break;
            if (pos_[i] != ref_.end())
                removeRef(i);
            const Tick when = soon();
            eq_.reschedule(evs_[i].get(), when);
            add(i, when, ++seq_);
            break;
          }
          case 4: {   // one-shot
            const int id = kEvents + static_cast<int>(oneShots_++);
            const Tick when = soon();
            eq_.scheduleFn([this, id] { fired(id); }, when);
            add(id, when, ++seq_);
            break;
          }
          case 5:   // the root
            descheduleAt(ref_.begin(), 0);
            break;
          case 6:   // a leaf: the latest entry of a heap is a leaf
            if (!ref_.empty())
                descheduleAt(std::prev(ref_.end()), 1);
            break;
          case 7: {   // a middle entry
            auto it = ref_.begin();
            std::advance(it, ref_.size() / 2);
            descheduleAt(it, 2);
            break;
          }
          case 12:
            repinOp();
            break;
        }
    }

    void
    topLevelOp()
    {
        const std::uint64_t r = rng_.uniformInt(10);
        if (r < 7)
            mutateOp();
        else if (r < 9)
            eq_.step();
        else
            eq_.runUntil(eq_.now() + 10 * rng_.uniformInt(3));
    }

    Rng rng_;
    std::vector<std::unique_ptr<CallbackEvent>> evs_;
    // Declared after the events: its destructor orphans whatever is
    // still scheduled (after a failed assertion) before they go.
    EventQueue eq_;
    RefSet ref_;
    std::vector<RefSet::iterator> pos_;     //!< ref entry per event
    std::vector<std::uint64_t> reserved_;   //!< reserved key, or 0
    std::uint64_t seq_ = 0;                 //!< mirrors the queue's keys
    std::uint64_t oneShots_ = 0;
    std::uint64_t fired_ = 0;
    std::uint64_t nested_ = 0;
    std::uint64_t removals_[3] = {};
    std::uint64_t laneFires_ = 0;
    std::uint64_t laneRemovals_ = 0;
    std::uint64_t pendingUnpins_ = 0;
    std::size_t maxSize_ = 0;
};

} // namespace

TEST(EventQueue, MatchesOrderedSetReference)
{
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        QueueDifferential diff(seed);
        diff.run(20000);
        // The mix really exercised what it claims to.
        EXPECT_GT(diff.fired(), 3000u);
        EXPECT_GT(diff.nested(), 1000u);
        EXPECT_GT(diff.maxSize(), 21u);   // four heap levels or more
        for (int kind = 0; kind < 3; ++kind)
            EXPECT_GT(diff.removals(kind), 100u) << "removal kind " << kind;
        EXPECT_GT(diff.laneFires(), 1000u);
        EXPECT_GT(diff.laneRemovals(), 100u);
        EXPECT_GT(diff.pendingUnpins(), 50u);
    }
}

TEST(EventQueue, DestroyedPinnedEventFreesItsLane)
{
    // Owners pin in the constructor and unpin in the destructor, as
    // net::TimedChannel does. One dies while pending and one while
    // idle, before the queue; their lanes go to new events, and the
    // queue's teardown touches only events that are still alive.
    struct Owner : Event
    {
        Owner(EventQueue &q, std::vector<int> &log, int id)
            : q(q), log(log), id(id)
        {
            q.pin(this);
        }

        ~Owner() override
        {
            if (scheduled())
                q.deschedule(this);
            if (pinned())
                q.unpin(this);
        }

        void execute() override { log.push_back(id); }

        EventQueue &q;
        std::vector<int> &log;
        int id;
    };

    EventQueue eq;
    std::vector<int> log;
    std::vector<std::unique_ptr<Owner>> owners;
    for (std::size_t i = 0; i < EventQueue::kLanes; ++i) {
        owners.push_back(std::make_unique<Owner>(eq, log, i));
        EXPECT_TRUE(owners.back()->pinned());
        eq.schedule(owners.back().get(), 100 - i);
    }
    Owner overflow(eq, log, 99);   // every lane taken: heap
    EXPECT_FALSE(overflow.pinned());
    eq.schedule(&overflow, 50);
    EXPECT_EQ(eq.size(), EventQueue::kLanes + 1);
    EXPECT_EQ(eq.heapPushes(), 1u);

    // A middle lane dies pending, another idle.
    owners[2].reset();
    eq.deschedule(owners[5].get());
    owners[5].reset();
    EXPECT_EQ(eq.size(), EventQueue::kLanes - 1);
    EXPECT_EQ(eq.heapSlots(), eq.size());

    // New events take the freed lanes; the last schedules at a tick
    // that runs after every older one.
    Owner late(eq, log, 7 + 100);
    Owner early(eq, log, 1 + 100);
    EXPECT_TRUE(late.pinned());
    EXPECT_TRUE(early.pinned());
    eq.schedule(&late, 200);
    eq.schedule(&early, 10);
    EXPECT_EQ(eq.heapPushes(), 1u);

    eq.runUntil(100);
    std::vector<int> want = {101, 99};
    for (int i = static_cast<int>(EventQueue::kLanes) - 1; i >= 0; --i) {
        if (i != 2 && i != 5)
            want.push_back(i);
    }
    EXPECT_EQ(log, want);
    // Leave two pinned events pending: their owners' destructors
    // remove them before the queue goes.
    eq.schedule(owners[0].get(), 300);
    EXPECT_EQ(eq.size(), 2u);
}

TEST(EventQueue, UnpinKeepsPendingOrder)
{
    // Unpinning a pending event moves it to the heap at the same
    // (when, key) position; events scheduled before and after it on
    // the same tick keep their places around it.
    EventQueue eq;
    std::vector<int> order;
    CallbackEvent a([&] { order.push_back(1); });
    CallbackEvent b([&] { order.push_back(2); });
    CallbackEvent c([&] { order.push_back(3); });
    ASSERT_TRUE(eq.pin(&a));
    ASSERT_TRUE(eq.pin(&b));
    eq.schedule(&a, 10);
    eq.schedule(&b, 10);
    eq.schedule(&c, 10);
    eq.unpin(&b);
    eq.unpin(&b);   // no lane held: a no-op
    EXPECT_FALSE(b.pinned());
    EXPECT_TRUE(b.scheduled());
    EXPECT_EQ(eq.heapPushes(), 2u);   // c, then b moved over
    EXPECT_EQ(eq.size(), 3u);
    EXPECT_EQ(eq.heapSlots(), 3u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    eq.unpin(&a);
}

TEST(Accumulator, Moments)
{
    Accumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.sample(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Histogram, QuantileAgainstExactSort)
{
    Rng rng(2);
    Histogram h;
    std::vector<double> all;
    for (int i = 0; i < 50000; ++i) {
        // Latency-like heavy-tail values between 1 us and ~10 ms.
        const double v = static_cast<double>(kUs) *
                         std::exp(rng.normal(1.0, 1.2));
        h.sample(v);
        all.push_back(v);
    }
    std::sort(all.begin(), all.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double exact = all[static_cast<std::size_t>(
            q * static_cast<double>(all.size() - 1))];
        const double est = h.quantile(q);
        // Geometric bins (64/decade) bound relative error to a few %.
        EXPECT_NEAR(est / exact, 1.0, 0.05)
            << "q=" << q << " exact=" << exact << " est=" << est;
    }
}

TEST(Histogram, EdgeCases)
{
    Histogram h;
    EXPECT_EQ(h.quantile(0.99), 0.0);
    h.sample(5.0 * static_cast<double>(kUs));
    EXPECT_DOUBLE_EQ(h.p99(), 5.0 * static_cast<double>(kUs));
    EXPECT_EQ(h.count(), 1u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(1e3, 1e6, 16);
    h.sample(1.0);      // below range
    h.sample(1e9);      // above range
    EXPECT_EQ(h.count(), 2u);
    EXPECT_GT(h.quantile(0.99), 0.0);
}

TEST(TimeWeighted, IntegratesPiecewiseConstant)
{
    TimeWeighted tw(100.0);
    tw.set(200.0, 10);          // 100 for [0,10)
    tw.set(50.0, 30);           // 200 for [10,30)
    // Integral to 40: 100*10 + 200*20 + 50*10 = 5500.
    EXPECT_DOUBLE_EQ(tw.integral(40), 5500.0);
    EXPECT_DOUBLE_EQ(tw.average(40), 137.5);
}

TEST(TimeWeighted, ResetStartsNewWindow)
{
    TimeWeighted tw(10.0);
    tw.set(20.0, 100);
    tw.resetAt(100);
    EXPECT_DOUBLE_EQ(tw.average(200), 20.0);
}

TEST(RateMeter, ReportsGbps)
{
    RateMeter m;
    m.resetAt(0);
    m.add(1500);
    // 1500 B over 120 ns = 100 Gbps.
    EXPECT_NEAR(m.gbpsAt(120 * kNs), 100.0, 1e-9);
}

TEST(Rng, Deterministic)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformBounds)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(rng.uniformInt(7), 7u);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(6);
    Accumulator acc;
    for (int i = 0; i < 200000; ++i)
        acc.sample(rng.normal(3.0, 2.0));
    EXPECT_NEAR(acc.mean(), 3.0, 0.02);
    EXPECT_NEAR(acc.stddev(), 2.0, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(7);
    Accumulator acc;
    for (int i = 0; i < 200000; ++i)
        acc.sample(rng.exponential(5.0));
    EXPECT_NEAR(acc.mean(), 5.0, 0.1);
}

TEST(Rng, LognormalMedian)
{
    // Median of lognormal(mu, sigma) is exp(mu).
    Rng rng(8);
    std::vector<double> v;
    for (int i = 0; i < 100001; ++i)
        v.push_back(rng.lognormal(1.5, 0.8));
    std::nth_element(v.begin(), v.begin() + 50000, v.end());
    EXPECT_NEAR(v[50000], std::exp(1.5), 0.1);
}

TEST(Rng, ForkDiverges)
{
    Rng a(9);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}
