/**
 * @file
 * Cross-rate monotonicity and accounting invariants of the full
 * system — the properties any reviewer would spot-check first:
 * delivered throughput is monotone in offered load up to saturation
 * and flat after; power is monotone; the director's counters account
 * for every packet; HAL never does worse than the better of its two
 * processors on throughput, on KNN, on REM with either ruleset and on
 * Table V's REM and crypto pipelines.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/server.hh"

using namespace halsim;
using namespace halsim::core;

namespace {

RunResult
runPoint(Mode mode, funcs::FunctionId fn, double rate,
         alg::RulesetKind ruleset = alg::RulesetKind::Teakettle,
         std::optional<funcs::FunctionId> second = {},
         Tick warmup = 10 * kMs, Tick measure = 50 * kMs)
{
    ServerConfig cfg;
    cfg.mode = mode;
    cfg.function = fn;
    cfg.rem_ruleset = ruleset;
    cfg.pipeline_second = second;
    EventQueue eq;
    ServerSystem sys(eq, cfg);
    return sys.run(std::make_unique<net::ConstantRate>(rate), warmup,
                   measure);
}

/**
 * HAL delivers at least max(host, SNIC) - 1 Gbps on the pipeline
 * @p first + @p second at 20, 50 and 90 Gbps, each point run for
 * @p warmup + @p measure.
 */
void
expectHalAtLeastMaxOnPipeline(funcs::FunctionId first,
                              funcs::FunctionId second, Tick warmup,
                              Tick measure)
{
    for (double rate : {20.0, 50.0, 90.0}) {
        const auto point = [&](Mode mode) {
            return runPoint(mode, first, rate, alg::RulesetKind::Teakettle,
                            second, warmup, measure);
        };
        const auto host = point(Mode::HostOnly);
        const auto snic = point(Mode::SnicOnly);
        const auto hal = point(Mode::Hal);
        EXPECT_GE(hal.delivered_gbps,
                  std::max(host.delivered_gbps, snic.delivered_gbps) - 1.0)
            << funcs::functionName(first) << "+"
            << funcs::functionName(second) << " at " << rate
            << " Gbps: host " << host.delivered_gbps << ", snic "
            << snic.delivered_gbps << ", hal " << hal.delivered_gbps;
    }
}

} // namespace

TEST(Invariants, DeliveredMonotoneThenFlatSnicOnly)
{
    std::vector<double> delivered;
    for (double rate : {10.0, 25.0, 40.0, 55.0, 70.0})
        delivered.push_back(
            runPoint(Mode::SnicOnly, funcs::FunctionId::Nat, rate)
                .delivered_gbps);
    // Monotone non-decreasing within tolerance...
    for (std::size_t i = 1; i < delivered.size(); ++i)
        EXPECT_GE(delivered[i], delivered[i - 1] - 0.5) << i;
    // ...and flat at the 41 Gbps plateau beyond the knee.
    EXPECT_NEAR(delivered[3], 41.0, 1.5);
    EXPECT_NEAR(delivered[4], 41.0, 1.5);
}

TEST(Invariants, HalAtLeastMaxOfBothProcessors)
{
    // KNN, and REM on both rulesets: teakettle runs faster on the host,
    // snort_literals on the SNIC's accelerator (§III-A).
    struct Workload
    {
        const char *name;
        funcs::FunctionId fn;
        alg::RulesetKind ruleset;
    };
    const Workload workloads[] = {
        {"knn", funcs::FunctionId::Knn, alg::RulesetKind::Teakettle},
        {"rem teakettle", funcs::FunctionId::Rem,
         alg::RulesetKind::Teakettle},
        {"rem snort_literals", funcs::FunctionId::Rem,
         alg::RulesetKind::SnortLiterals},
    };
    for (const Workload &w : workloads) {
        for (double rate : {20.0, 50.0, 90.0}) {
            const auto host =
                runPoint(Mode::HostOnly, w.fn, rate, w.ruleset);
            const auto snic =
                runPoint(Mode::SnicOnly, w.fn, rate, w.ruleset);
            const auto hal = runPoint(Mode::Hal, w.fn, rate, w.ruleset);
            EXPECT_GE(hal.delivered_gbps,
                      std::max(host.delivered_gbps, snic.delivered_gbps) -
                          1.0)
                << w.name << " at " << rate << " Gbps: host "
                << host.delivered_gbps << ", snic " << snic.delivered_gbps
                << ", hal " << hal.delivered_gbps;
        }
    }
}

TEST(Invariants, HalAtLeastMaxOfBothProcessorsOnRemPipelines)
{
    // Table V's nat+rem and count+rem (§VII-B). A pipeline scans with
    // teakettle; count keeps coherent state under HAL.
    for (funcs::FunctionId first :
         {funcs::FunctionId::Nat, funcs::FunctionId::Count})
        expectHalAtLeastMaxOnPipeline(first, funcs::FunctionId::Rem,
                                      10 * kMs, 50 * kMs);
}

// Table V's nat+crypto and count+crypto, one test each so that they
// run in parallel. Crypto costs ~28 us of host time per frame, so the
// window is short: 2 ms of warmup and 5 ms measured, ~4 s per test in
// RelWithDebInfo. At 90 Gbps HAL delivers 89.8-89.9 Gbps, against
// 79.2 on the host and 36.9 (nat) or 37.8 (count) on the SNIC.
TEST(Invariants, HalAtLeastMaxOfBothProcessorsOnNatCryptoPipeline)
{
    expectHalAtLeastMaxOnPipeline(funcs::FunctionId::Nat,
                                  funcs::FunctionId::Crypto, 2 * kMs,
                                  5 * kMs);
}

TEST(Invariants, HalAtLeastMaxOfBothProcessorsOnCountCryptoPipeline)
{
    expectHalAtLeastMaxOnPipeline(funcs::FunctionId::Count,
                                  funcs::FunctionId::Crypto, 2 * kMs,
                                  5 * kMs);
}

TEST(Invariants, PowerMonotoneInRateUnderHal)
{
    double prev = 0.0;
    for (double rate : {5.0, 30.0, 60.0, 90.0}) {
        const auto r = runPoint(Mode::Hal, funcs::FunctionId::Nat, rate);
        EXPECT_GE(r.system_power_w, prev - 1.0) << "rate " << rate;
        prev = r.system_power_w;
    }
}

TEST(Invariants, DirectorAccountsForEveryPacket)
{
    ServerConfig cfg;
    cfg.mode = Mode::Hal;
    cfg.function = funcs::FunctionId::Nat;
    EventQueue eq;
    ServerSystem sys(eq, cfg);
    const auto r = sys.run(std::make_unique<net::ConstantRate>(70.0),
                           10 * kMs, 50 * kMs);
    const auto *dir = sys.director();
    // Every generated packet passed the director exactly once.
    EXPECT_NEAR(static_cast<double>(dir->toSnic() + dir->toHost()),
                static_cast<double>(r.sent), 8.0);
}

TEST(Invariants, EnergyEfficiencyIsThroughputOverPower)
{
    const auto r = runPoint(Mode::Hal, funcs::FunctionId::Count, 40.0);
    EXPECT_NEAR(r.energy_eff, r.delivered_gbps / r.system_power_w,
                1e-12);
    EXPECT_NEAR(r.system_power_w,
                funcs::kServerBasePowerW + r.dynamic_power_w, 1e-9);
}

TEST(Invariants, ResponsesNeverExceedRequests)
{
    for (Mode m : {Mode::HostOnly, Mode::SnicOnly, Mode::Hal, Mode::Slb}) {
        const auto r = runPoint(m, funcs::FunctionId::Nat, 60.0);
        // At most one response per request. The slack covers packets
        // that were in flight (queued in rings) across the
        // warmup/measure boundary — bounded by the ring capacities.
        EXPECT_LE(r.responses, r.sent + 8 * 512) << modeName(m);
    }
}

TEST(Invariants, FrameSizeSweepPreservesConservation)
{
    for (std::size_t frame : {64u, 256u, 512u, 1500u}) {
        ServerConfig cfg;
        cfg.mode = Mode::Hal;
        cfg.function = funcs::FunctionId::DpdkFwd;
        cfg.frame_bytes = frame;
        EventQueue eq;
        ServerSystem sys(eq, cfg);
        const auto r = sys.run(std::make_unique<net::ConstantRate>(20.0),
                               10 * kMs, 30 * kMs);
        EXPECT_NEAR(static_cast<double>(r.responses + r.drops) /
                        static_cast<double>(r.sent),
                    1.0, 0.02)
            << "frame " << frame;
    }
}
