/**
 * @file
 * Engine-cost ratchet: the exact event-queue work of every end-to-end
 * benchmark workload, pinned as committed integers.
 *
 * Each workload comes from perfbench/src/workload.cc (compiled into
 * this test, so there is no second copy of the workloads) and runs at
 * 1% of its benchmark window on a fresh queue and system. Four
 * deterministic counts must match exactly: client frames, events
 * executed, events descheduled, and packet-pool misses. Heap pushes
 * follow from them: executed + descheduled + still pending.
 *
 * A rise fails the test. A fall is a win, and it too fails until the
 * constant below is lowered in the same change, so every drop in the
 * engine's work per packet is recorded where it happened.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "net/packet_pool.hh"
#include "workload.hh"

using namespace halsim;

namespace {

/** Fraction of each benchmark window: all four runs take ~0.1 s. */
constexpr double kScale = 0.01;

struct EngineCost
{
    std::uint64_t frames = 0;       //!< client frames (fleet: sends)
    std::uint64_t executed = 0;     //!< EventQueue::executed()
    std::uint64_t descheduled = 0;  //!< EventQueue::descheduled()
    std::uint64_t pool_misses = 0;  //!< PacketPool allocations
};

/** Committed counts; lower one only when the engine's work drops. */
const std::map<std::string, EngineCost> kCommitted = {
    //                   frames  executed  descheduled  pool misses
    {"hal_nat_60g",     {20000,  154652,   7585,        50}},
    {"hal_rem_40g",     {6667,   47894,    19,          3870}},
    {"hal_kvs_diurnal", {6904,   55973,    448,         176}},
    {"fleet_crash",     {16339,  93388,    0,           26}},
};

/** Run @p w once; @p pending receives the events left in the queue. */
EngineCost
measure(const perfbench::Workload &w, std::uint64_t &pending)
{
    net::PacketPool &pool = net::PacketPool::local();
    pool.clear();
    const std::uint64_t misses0 = pool.misses();

    EngineCost c;
    EventQueue eq;
    if (w.kind == perfbench::SystemKind::Fleet) {
        fleet::FleetSystem sys(eq, w.fleet);
        sys.run(w.makeRate(), w.warmup, w.measure);
        c.frames = sys.client().sends();
    } else {
        core::ServerSystem sys(eq, w.server);
        sys.run(w.makeRate(), w.warmup, w.measure);
        const net::Link &in = *sys.clientLink();
        c.frames = in.deliveredFrames() + in.drops() + in.faultDrops();
    }
    c.executed = eq.executed();
    c.descheduled = eq.descheduled();
    c.pool_misses = pool.misses() - misses0;
    pending = eq.size();
    return c;
}

std::string
describe(const EngineCost &c, std::uint64_t pending)
{
    const double frames = static_cast<double>(c.frames);
    const std::uint64_t pushes = c.executed + c.descheduled + pending;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "measured {%llu, %llu, %llu, %llu}: %.2f events/pkt, "
                  "%.2f heap pushes/pkt",
                  static_cast<unsigned long long>(c.frames),
                  static_cast<unsigned long long>(c.executed),
                  static_cast<unsigned long long>(c.descheduled),
                  static_cast<unsigned long long>(c.pool_misses),
                  static_cast<double>(c.executed) / frames,
                  static_cast<double>(pushes) / frames);
    return buf;
}

class EngineCostRatchet : public ::testing::TestWithParam<std::string>
{};

TEST_P(EngineCostRatchet, MatchesCommittedCounts)
{
    const auto it = kCommitted.find(GetParam());
    ASSERT_NE(it, kCommitted.end())
        << "no committed engine cost for workload " << GetParam();
    const EngineCost &want = it->second;

    std::uint64_t pending = 0;
    const EngineCost got =
        measure(perfbench::makeWorkload(GetParam(), 1, kScale), pending);
    SCOPED_TRACE(describe(got, pending));
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.executed, want.executed);
    EXPECT_EQ(got.descheduled, want.descheduled);
    EXPECT_EQ(got.pool_misses, want.pool_misses);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, EngineCostRatchet,
    ::testing::ValuesIn(perfbench::workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
