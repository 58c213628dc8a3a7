/**
 * @file
 * Engine-cost ratchet: the exact event-queue and heap work of every
 * end-to-end benchmark workload, pinned as committed integers.
 *
 * Each workload comes from perfbench/src/workload.cc (compiled into
 * this test, so there is no second copy of the workloads) and runs at
 * 1% of its benchmark window on a fresh queue and system. Five
 * deterministic counts must match exactly: client frames, events
 * executed, events descheduled, C++ heap allocations made inside
 * run(), and schedules that went onto the heap rather than into a
 * lane (EventQueue::heapPushes()). The last one pins which events
 * hold lanes: a dropped pin raises it.
 *
 * The RunResult is pinned too, as perfbench's simulation digest (the
 * `simulation=` value of its digest lines, here at this test's
 * scale). Any change to a simulated number fails every build that
 * runs ctest, not only a manual comparison of benchmark digests.
 *
 * Allocations are counted by the replacement global operator new
 * below, which exists in this test binary only. The plain, array,
 * nothrow and sized forms of new and delete are all replaced, so a
 * sanitizer runtime sees one malloc/free family and no mismatch (with
 * only the throwing forms replaced, ASan reports alloc-dealloc
 * mismatches). No simulator type is over-aligned, so the align_val_t
 * forms are left alone. The counts depend on libstdc++'s container
 * growth policies; they were taken with g++ 12.2 and, like the
 * digests, are the same in Debug, RelWithDebInfo, Release and
 * ASan+UBSan builds.
 *
 * A rise fails the test. A fall is a win, and it too fails until the
 * constant below is lowered in the same change, so every drop in the
 * engine's work per packet is recorded where it happened.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>

#include "net/packet_pool.hh"
#include "workload.hh"

using namespace halsim;

namespace {

/** Every operator new in this process; single-threaded test. */
std::uint64_t gAllocations = 0;

void *
countedAlloc(std::size_t n) noexcept
{
    ++gAllocations;
    return std::malloc(n != 0 ? n : 1);
}

void *
countedAllocOrThrow(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

/** Fraction of each benchmark window: all four runs take ~0.1 s. */
constexpr double kScale = 0.01;

struct EngineCost
{
    std::uint64_t frames = 0;       //!< client frames (fleet: sends)
    std::uint64_t executed = 0;     //!< EventQueue::executed()
    std::uint64_t descheduled = 0;  //!< EventQueue::descheduled()
    std::uint64_t allocations = 0;  //!< operator new inside run()
    std::uint64_t heapPushes = 0;   //!< EventQueue::heapPushes()
};

struct Committed
{
    EngineCost cost;
    const char *simulation;   //!< perfbench digest(simulationJson())
};

/**
 * Committed counts; lower one only when the engine's work drops. The
 * digest moves only with a simulated number.
 */
const std::map<std::string, Committed> kCommitted = {
    //                   frames  executed  descheduled  allocations  heap pushes
    {"hal_nat_60g",     {{20000,  114652,   7585,        20068,       29356},
                         "9999a33e2ce5a2ad"}},
    {"hal_rem_40g",     {{6667,   36296,    19,          10608,       8888},
                         "2c8df4e1a3e3b82a"}},
    {"hal_kvs_diurnal", {{6904,   42165,    448,         9153,        11283},
                         "00cbcdc2ddd15568"}},
    {"fleet_crash",     {{16339,  79393,    0,           31768,       25805},
                         "c4ad8560965be2d1"}},
};

/**
 * Run @p w once; @p pending receives the events left in the queue and
 * @p simulation the run's simulation digest.
 */
EngineCost
measure(const perfbench::Workload &w, std::uint64_t &pending,
        std::string &simulation)
{
    // Start every workload from an empty pool, whatever ran before.
    net::PacketPool::local().clear();

    EngineCost c;
    EventQueue eq;
    // Only run() is counted: system and rate construction come first.
    auto run = [&](auto &sys) {
        std::unique_ptr<net::RateProcess> rate = w.makeRate();
        const std::uint64_t before = gAllocations;
        const core::RunResult r =
            sys.run(std::move(rate), w.warmup, w.measure);
        c.allocations = gAllocations - before;
        simulation = perfbench::digest(perfbench::simulationJson(r));
    };
    if (w.kind == perfbench::SystemKind::Fleet) {
        fleet::FleetSystem sys(eq, w.fleet);
        run(sys);
        c.frames = sys.client().sends();
    } else {
        core::ServerSystem sys(eq, w.server);
        run(sys);
        const net::Link &in = *sys.clientLink();
        c.frames = in.deliveredFrames() + in.drops() + in.faultDrops();
    }
    c.executed = eq.executed();
    c.descheduled = eq.descheduled();
    c.heapPushes = eq.heapPushes();
    pending = eq.size();
    return c;
}

std::string
describe(const EngineCost &c, std::uint64_t pending)
{
    const double frames = static_cast<double>(c.frames);
    const std::uint64_t schedules = c.executed + c.descheduled + pending;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "measured {%llu, %llu, %llu, %llu, %llu}: "
                  "%.2f events/pkt, %.2f schedules/pkt, "
                  "%.2f heap pushes/pkt, %.2f allocations/pkt",
                  static_cast<unsigned long long>(c.frames),
                  static_cast<unsigned long long>(c.executed),
                  static_cast<unsigned long long>(c.descheduled),
                  static_cast<unsigned long long>(c.allocations),
                  static_cast<unsigned long long>(c.heapPushes),
                  static_cast<double>(c.executed) / frames,
                  static_cast<double>(schedules) / frames,
                  static_cast<double>(c.heapPushes) / frames,
                  static_cast<double>(c.allocations) / frames);
    return buf;
}

class EngineCostRatchet : public ::testing::TestWithParam<std::string>
{};

TEST_P(EngineCostRatchet, MatchesCommittedCounts)
{
    const auto it = kCommitted.find(GetParam());
    ASSERT_NE(it, kCommitted.end())
        << "no committed engine cost for workload " << GetParam();
    const EngineCost &want = it->second.cost;

    std::uint64_t pending = 0;
    std::string simulation;
    const EngineCost got = measure(
        perfbench::makeWorkload(GetParam(), 1, kScale), pending, simulation);
    SCOPED_TRACE(describe(got, pending));
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.executed, want.executed);
    EXPECT_EQ(got.descheduled, want.descheduled);
    EXPECT_EQ(got.allocations, want.allocations);
    EXPECT_EQ(got.heapPushes, want.heapPushes);
    EXPECT_EQ(simulation, it->second.simulation);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EngineCostRatchet,
    ::testing::ValuesIn(perfbench::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
