/**
 * @file
 * Core-scaling governor unit + integration tests: the pure per-epoch
 * planning functions against an exact reference, the flow-group
 * indirection mechanism, and full-system runs
 * proving the governor parks/unparks under load swings without
 * breaking the energy ledger.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/server.hh"
#include "net/traffic.hh"
#include "nic/dpdk_ring.hh"
#include "proc/governor.hh"
#include "proc/processor.hh"
#include "sim/event_queue.hh"

using namespace halsim;
using namespace halsim::core;
using namespace halsim::proc;

namespace {

net::PacketPtr
packetWithFlowHash(std::uint32_t flow_hash)
{
    static constexpr std::uint8_t kEmpty[1] = {0};
    const net::FlowEndpoints ep;
    auto pkt = net::makeUdpPacket(ep.src_mac, ep.dst_mac, ep.src_ip,
                                  ep.dst_ip, ep.src_port, ep.dst_port,
                                  std::span<const std::uint8_t>(kEmpty, 0),
                                  net::kMtuFrameBytes);
    pkt->flowHash = flow_hash;
    return pkt;
}

/**
 * Independent reference for planRebalance, written straight from the
 * spec: donor = most-loaded active core, receiver = least-loaded
 * (ascending index on ties); no plan when the gap is within the
 * threshold, the donor owns <= 1 group, or saw no packets; otherwise
 * move heaviest groups first until half the gap is covered, keeping
 * one group on the donor.
 */
std::vector<GroupMove>
referenceRebalance(const std::vector<double> &load,
                   const std::vector<bool> &active,
                   const std::vector<std::uint32_t> &group_core,
                   const std::vector<std::uint64_t> &group_pkts)
{
    std::vector<GroupMove> moves;
    int donor = -1, receiver = -1;
    for (std::size_t i = 0; i < load.size(); ++i) {
        if (!active[i])
            continue;
        if (donor < 0 || load[i] > load[static_cast<std::size_t>(donor)])
            donor = static_cast<int>(i);
        if (receiver < 0 ||
            load[i] < load[static_cast<std::size_t>(receiver)])
            receiver = static_cast<int>(i);
    }
    if (donor < 0 || donor == receiver)
        return moves;
    const double gap = load[static_cast<std::size_t>(donor)] -
                       load[static_cast<std::size_t>(receiver)];
    if (gap <= kGovImbalanceThreshold)
        return moves;
    std::vector<std::uint32_t> owned;
    std::uint64_t total_pkts = 0;
    for (std::uint32_t g = 0; g < group_core.size(); ++g) {
        if (group_core[g] == static_cast<std::uint32_t>(donor)) {
            owned.push_back(g);
            total_pkts += group_pkts[g];
        }
    }
    if (owned.size() <= 1 || total_pkts == 0)
        return moves;
    std::stable_sort(owned.begin(), owned.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return group_pkts[a] > group_pkts[b];
                     });
    double moved = 0.0;
    for (std::uint32_t g : owned) {
        if (moved >= gap / 2.0 || moves.size() + 1 >= owned.size())
            break;
        moves.push_back({g, static_cast<std::uint32_t>(donor),
                         static_cast<std::uint32_t>(receiver)});
        moved += load[static_cast<std::size_t>(donor)] *
                 static_cast<double>(group_pkts[g]) /
                 static_cast<double>(total_pkts);
    }
    return moves;
}

void
expectSamePlan(const std::vector<GroupMove> &a,
               const std::vector<GroupMove> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a[i].group, b[i].group);
        EXPECT_EQ(a[i].from, b[i].from);
        EXPECT_EQ(a[i].to, b[i].to);
    }
}

RunResult
runGoverned(double rate_gbps, bool governed, Tick measure = 40 * kMs)
{
    ServerConfig cfg;
    cfg.mode = Mode::Hal;
    cfg.function = funcs::FunctionId::Nat;
    cfg.power.governor.enabled = governed;
    EventQueue eq;
    ServerSystem sys(eq, cfg);
    return sys.run(std::make_unique<net::ConstantRate>(rate_gbps),
                   10 * kMs, measure);
}

} // namespace

TEST(FlowGroupTable, HashIsDeterministicAndStriped)
{
    FlowGroupTable a(64, 4), b(64, 4);
    for (std::uint32_t h = 0; h < 1000; ++h)
        EXPECT_EQ(a.groupOf(h), b.groupOf(h));
    // Initial stripe matches RssDistributor's modulo group-wise.
    for (std::uint32_t g = 0; g < a.groupCount(); ++g)
        EXPECT_EQ(a.coreOfGroup(g), g % 4);
}

TEST(FlowGroupTable, AcceptFollowsIndirectionAndCountsPackets)
{
    FlowGroupTable table(16, 2);
    nic::DpdkRing r0(32), r1(32);
    table.addQueue(&r0);
    table.addQueue(&r1);

    const std::uint32_t h = 12345;
    const std::uint32_t g = table.groupOf(h);
    const std::uint32_t before = table.coreOfGroup(g);
    table.accept(packetWithFlowHash(h));
    EXPECT_EQ((before == 0 ? r0 : r1).occupancy(), 1u);
    EXPECT_EQ(table.groupPackets(g), 1u);

    // Steering is an O(1) indirection write: the same flow lands on
    // the other core afterwards.
    const std::uint32_t other = before == 0 ? 1 : 0;
    table.assign(g, other);
    table.accept(packetWithFlowHash(h));
    EXPECT_EQ((other == 0 ? r0 : r1).occupancy(), 1u);
    EXPECT_EQ(table.groupPackets(g), 2u);

    table.resetEpoch();
    EXPECT_EQ(table.groupPackets(g), 0u);
}

TEST(Governor, ConsolidationHysteresis)
{
    ASSERT_EQ(kGovMinDwellEpochs, 5u);
    ASSERT_EQ(kGovMinActiveCores, 1u);

    // Idle but not yet dwelled: hold.
    EXPECT_EQ(planConsolidation(0.1, 0, 8, 8, 4), GovernorAction::None);
    // Dwell satisfied: park.
    EXPECT_EQ(planConsolidation(0.1, 0, 8, 8, 5), GovernorAction::Park);
    // Floor reached: never park below kGovMinActiveCores.
    EXPECT_EQ(planConsolidation(0.0, 0, 1, 8, 100), GovernorAction::None);
    // Between the watermarks: hold regardless of dwell.
    EXPECT_EQ(planConsolidation(0.5, 0, 4, 8, 100), GovernorAction::None);
    // Hot: unpark one — unless already at full size.
    EXPECT_EQ(planConsolidation(0.95, 0, 4, 8, 0),
              GovernorAction::UnparkOne);
    EXPECT_EQ(planConsolidation(0.95, 0, 8, 8, 0), GovernorAction::None);
    // Occupancy pressure valve beats everything, even mid-dwell idle.
    EXPECT_EQ(planConsolidation(0.1, kGovOccUnpark, 4, 8, 0),
              GovernorAction::UnparkAll);
    EXPECT_EQ(planConsolidation(0.1, kGovOccUnpark, 8, 8, 0),
              GovernorAction::None);
}

TEST(Governor, RebalanceHandFixtures)
{
    ASSERT_DOUBLE_EQ(kGovImbalanceThreshold, 0.10);

    // 4 cores, 8 groups striped %4; core 0 hot with most load in
    // group 0: one move (group 0 -> core 1) already covers half the
    // 0.8 gap.
    const std::vector<double> load{1.0, 0.2, 0.5, 0.4};
    const std::vector<bool> active{true, true, true, true};
    std::vector<std::uint32_t> group_core;
    for (std::uint32_t g = 0; g < 8; ++g)
        group_core.push_back(g % 4);
    std::vector<std::uint64_t> pkts(8, 5);
    pkts[0] = 30;
    pkts[4] = 10;

    const auto moves =
        planRebalance(load, active, group_core, pkts);
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].group, 0u);
    EXPECT_EQ(moves[0].from, 0u);
    EXPECT_EQ(moves[0].to, 1u);

    // Balanced within the threshold: no plan.
    EXPECT_TRUE(planRebalance({0.5, 0.45, 0.48, 0.52}, active,
                              group_core, pkts)
                    .empty());

    // A parked core is never the donor or the receiver.
    const auto parked_moves =
        planRebalance({9.0, 0.2, 0.5, 0.0}, {false, true, true, false},
                      group_core, pkts);
    for (const GroupMove &m : parked_moves) {
        EXPECT_NE(m.from, 0u);
        EXPECT_NE(m.to, 3u);
    }

    // A single-group donor is left alone (nothing to split).
    std::vector<std::uint32_t> lone(8, 1);
    lone[0] = 0;
    EXPECT_TRUE(planRebalance(load, active, lone, pkts).empty());

    // A donor that saw no packets this epoch yields no estimate.
    EXPECT_TRUE(planRebalance(load, active, group_core,
                              std::vector<std::uint64_t>(8, 0))
                    .empty());
}

TEST(Governor, RebalanceMatchesExactReference)
{
    // Deterministic pseudo-random battery against the independent
    // reference implementation above.
    std::uint64_t state = 0x1234567ull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (int iter = 0; iter < 200; ++iter) {
        const std::size_t cores = 2 + next() % 7;
        const std::uint32_t groups =
            static_cast<std::uint32_t>(cores) *
            static_cast<std::uint32_t>(1 + next() % 8);
        std::vector<double> load(cores);
        std::vector<bool> active(cores);
        std::size_t n_active = 0;
        for (std::size_t i = 0; i < cores; ++i) {
            load[i] = static_cast<double>(next() % 2000) / 1000.0;
            active[i] = next() % 4 != 0;
            n_active += active[i] ? 1 : 0;
        }
        if (n_active == 0)
            active[0] = true;
        std::vector<std::uint32_t> group_core(groups);
        std::vector<std::uint64_t> pkts(groups);
        for (std::uint32_t g = 0; g < groups; ++g) {
            group_core[g] =
                static_cast<std::uint32_t>(next() % cores);
            pkts[g] = next() % 50;
        }
        SCOPED_TRACE(iter);
        expectSamePlan(
            planRebalance(load, active, group_core, pkts),
            referenceRebalance(load, active, group_core, pkts));
    }
}

TEST(Governor, ParksAtLowLoadWithinBounds)
{
    const RunResult r = runGoverned(4.0, true);
    EXPECT_GT(r.gov_epochs, 0u);
    EXPECT_GT(r.gov_parks, 0u);
    // Both processors (8 cores each) consolidate, but never below
    // kGovMinActiveCores = 1 per processor; the RunResult carries the
    // sum of the per-processor extremes.
    EXPECT_GE(r.gov_min_active_cores, 2u);
    EXPECT_LT(r.gov_min_active_cores, 16u);
    EXPECT_LE(r.gov_max_active_cores, 16u);
    EXPECT_GT(r.delivered_gbps, 3.5);
}

TEST(Governor, SavesEnergyAtLowLoadKeepsLedgerConsistent)
{
    const RunResult st = runGoverned(4.0, false);
    const RunResult gov = runGoverned(4.0, true);
    // Parked cores stop burning poll watts: strictly better J/Gb.
    EXPECT_LT(gov.j_per_gb, st.j_per_gb);
    // Per-core attribution must still sum with the other components
    // to the total (the ledger's closed-sum invariant).
    for (const RunResult *r : {&st, &gov}) {
        const double sum = r->energy_snic_cpu_j + r->energy_snic_accel_j +
                           r->energy_host_cpu_j + r->energy_host_accel_j +
                           r->energy_fleet_j + r->energy_extra_j +
                           r->energy_static_j;
        EXPECT_NEAR(sum, r->energy_total_j,
                    1e-9 * std::max(1.0, r->energy_total_j));
    }
}

TEST(Governor, UnparksOnLoadSwing)
{
    // A deterministic day/night swing: the governor must park at the
    // trough and wake cores again for the peak without losing
    // throughput.
    ServerConfig cfg;
    cfg.mode = Mode::Hal;
    cfg.function = funcs::FunctionId::Nat;
    cfg.power.governor.enabled = true;
    EventQueue eq;
    ServerSystem sys(eq, cfg);
    const RunResult r =
        sys.run(std::make_unique<net::DiurnalRate>(2.0, 70.0, 20),
                10 * kMs, 60 * kMs, 1 * kMs);
    EXPECT_GT(r.gov_parks, 0u);
    EXPECT_GT(r.gov_unparks, 0u);
    EXPECT_GT(r.gov_max_active_cores, r.gov_min_active_cores);
    EXPECT_GT(r.delivered_gbps, 0.8 * r.offered_gbps);
}

TEST(Governor, DisabledLeavesFieldsZeroAndBehaviorUnchanged)
{
    const RunResult off = runGoverned(30.0, false, 20 * kMs);
    EXPECT_EQ(off.gov_epochs, 0u);
    EXPECT_EQ(off.gov_rebalances, 0u);
    EXPECT_EQ(off.gov_migrations, 0u);
    EXPECT_EQ(off.gov_parks, 0u);
    EXPECT_EQ(off.gov_unparks, 0u);
    EXPECT_EQ(off.gov_min_active_cores, 0u);
    EXPECT_EQ(off.gov_max_active_cores, 0u);
}

TEST(Governor, ActiveCapacityClampsLbpThreshold)
{
    // LbP co-design: with cores parked, the director's forwarding
    // threshold must not exceed what the shrunken active set can
    // actually serve. At a rate low enough to consolidate the SNIC
    // down to one poll core, scaledTp(1) sits below the static run's
    // converged threshold, so the clamp is directly visible in
    // final_fwd_th_gbps.
    auto finalTh = [](bool governed) {
        ServerConfig cfg;
        cfg.mode = Mode::Hal;
        cfg.function = funcs::FunctionId::Nat;
        cfg.power.governor.enabled = governed;
        EventQueue eq;
        ServerSystem sys(eq, cfg);
        const RunResult r =
            sys.run(std::make_unique<net::ConstantRate>(0.8), 10 * kMs,
                    40 * kMs);
        const double cap = sys.snicProcessor()->config().profile.scaledTp(
            sys.snicProcessor()->governorActiveCores());
        if (governed) {
            // Consolidation converges inside warmup at this rate (the
            // park *events* land pre-reset; ParksAtLowLoadWithinBounds
            // covers the counters) — what matters here is the steady
            // state: a shrunken active set and a threshold below its
            // capacity.
            EXPECT_LT(sys.snicProcessor()->governorActiveCores(),
                      sys.snicProcessor()->coreCount());
            EXPECT_LE(r.final_fwd_th_gbps, cap + 1e-9)
                << "threshold above the active set's capacity";
        }
        return r.final_fwd_th_gbps;
    };
    const double st = finalTh(false);
    const double gov = finalTh(true);
    EXPECT_LT(gov, st)
        << "a consolidated SNIC must advertise reduced capacity";
}
