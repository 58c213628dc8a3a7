/**
 * @file
 * End-to-end ServerSystem integration: packet conservation, the
 * paper's headline behaviours (SNIC saturation, HAL's cooperative
 * throughput/energy/latency), merger identity, coherent stateful
 * processing, and the SLB baseline penalty.
 */

#include <gtest/gtest.h>

#include <memory>

#include "alg/corpus.hh"
#include "core/server.hh"
#include "funcs/content.hh"
#include "funcs/pipeline.hh"

using namespace halsim;
using namespace halsim::core;

namespace {

RunResult
runConstant(ServerSystem &sys, double rate_gbps, Tick warmup = 20 * kMs,
            Tick measure = 100 * kMs)
{
    return sys.run(std::make_unique<net::ConstantRate>(rate_gbps), warmup,
                   measure);
}

ServerConfig
cfgFor(Mode mode, funcs::FunctionId fn)
{
    ServerConfig cfg;
    cfg.mode = mode;
    cfg.function = fn;
    return cfg;
}

} // namespace

TEST(System, PacketConservationHostOnly)
{
    EventQueue eq;
    ServerSystem sys(eq, cfgFor(Mode::HostOnly, funcs::FunctionId::Nat));
    const auto r = runConstant(sys, 40.0);
    // Below capacity: nothing drops; every request returns, modulo
    // the handful in flight across the warmup/measure boundaries.
    EXPECT_EQ(r.drops, 0u);
    EXPECT_NEAR(static_cast<double>(r.responses),
                static_cast<double>(r.sent), 32.0);
}

TEST(System, PacketConservationUnderOverload)
{
    EventQueue eq;
    ServerSystem sys(eq, cfgFor(Mode::SnicOnly, funcs::FunctionId::Nat));
    const auto r = runConstant(sys, 80.0);
    // Overloaded: responses + drops must account for (almost) all
    // sent packets (a ring's worth may be in flight at the end).
    const double accounted =
        static_cast<double>(r.responses + r.drops);
    EXPECT_NEAR(accounted / static_cast<double>(r.sent), 1.0, 0.02);
    EXPECT_GT(r.drops, 0u);
}

TEST(System, SnicSaturatesAtCalibratedNatRate)
{
    EventQueue eq;
    ServerSystem sys(eq, cfgFor(Mode::SnicOnly, funcs::FunctionId::Nat));
    const auto r = runConstant(sys, 80.0);
    EXPECT_NEAR(r.delivered_gbps, 41.0, 1.5) << "Table II SLO anchor";
    EXPECT_GT(r.p99_us, 300.0) << "saturated rings blow up the tail";
}

TEST(System, HostAbsorbsHighRate)
{
    EventQueue eq;
    ServerSystem sys(eq, cfgFor(Mode::HostOnly, funcs::FunctionId::Nat));
    const auto r = runConstant(sys, 80.0);
    EXPECT_NEAR(r.delivered_gbps, 80.0, 1.5);
    EXPECT_LT(r.p99_us, 100.0);
}

TEST(System, HalMatchesHostThroughputWithLowerPower)
{
    EventQueue eq1, eq2;
    ServerSystem host(eq1, cfgFor(Mode::HostOnly, funcs::FunctionId::Nat));
    ServerSystem hal(eq2, cfgFor(Mode::Hal, funcs::FunctionId::Nat));
    const auto rh = runConstant(host, 80.0);
    const auto ra = runConstant(hal, 80.0);
    EXPECT_NEAR(ra.delivered_gbps, rh.delivered_gbps, 2.0);
    EXPECT_LT(ra.system_power_w, rh.system_power_w)
        << "HAL keeps part of the load on the efficient SNIC";
    EXPECT_EQ(ra.drops, 0u);
    EXPECT_GT(ra.snic_frames, 0u);
    EXPECT_GT(ra.host_frames, 0u);
}

TEST(System, HalBeatsSnicLatencyAboveItsKnee)
{
    EventQueue eq1, eq2;
    ServerSystem snic(eq1, cfgFor(Mode::SnicOnly, funcs::FunctionId::Nat));
    ServerSystem hal(eq2, cfgFor(Mode::Hal, funcs::FunctionId::Nat));
    const auto rs = runConstant(snic, 60.0);
    const auto ra = runConstant(hal, 60.0);
    EXPECT_LT(ra.p99_us, rs.p99_us / 5.0)
        << "above the SNIC knee HAL must divert and keep the tail low";
    EXPECT_GT(ra.delivered_gbps, rs.delivered_gbps + 10.0);
}

TEST(System, HalEnergyEfficiencyGainAtLowRate)
{
    // The headline: at low rates HAL rides the SNIC and the host
    // sleeps, so HAL's system-wide EE beats host-only by ~25-40%.
    EventQueue eq1, eq2;
    ServerSystem host(eq1, cfgFor(Mode::HostOnly, funcs::FunctionId::Nat));
    ServerSystem hal(eq2, cfgFor(Mode::Hal, funcs::FunctionId::Nat));
    const auto rh = runConstant(host, 15.0);
    const auto ra = runConstant(hal, 15.0);
    EXPECT_NEAR(ra.delivered_gbps, rh.delivered_gbps, 1.0);
    const double gain = ra.energy_eff / rh.energy_eff - 1.0;
    EXPECT_GT(gain, 0.20) << "EE gain " << gain;
    EXPECT_LT(gain, 0.60);
    EXPECT_EQ(ra.host_frames, 0u)
        << "below Fwd_Th nothing should reach the host";
}

TEST(System, HalAddsOnlySmallLatencyBelowKnee)
{
    EventQueue eq1, eq2;
    ServerSystem snic(eq1, cfgFor(Mode::SnicOnly, funcs::FunctionId::Nat));
    ServerSystem hal(eq2, cfgFor(Mode::Hal, funcs::FunctionId::Nat));
    const auto rs = runConstant(snic, 10.0);
    const auto ra = runConstant(hal, 10.0);
    // §VII-A: ~3% plus the HLB's 800 ns; we allow the extra slack of
    // running one fewer SNIC core (the LBP core).
    EXPECT_LT(ra.p99_us, rs.p99_us * 1.6 + 2.0);
}

TEST(System, MergerHidesHostIdentity)
{
    EventQueue eq;
    ServerSystem sys(eq, cfgFor(Mode::Hal, funcs::FunctionId::Nat));
    const auto r = runConstant(sys, 70.0);
    ASSERT_GT(r.host_frames, 0u);
    EXPECT_GE(sys.merger()->merged(), r.host_frames)
        << "every host response must be rewritten to the SNIC identity";
    // Responses in flight across the warmup boundary make the two
    // counters differ by a handful of packets.
    EXPECT_NEAR(static_cast<double>(
                    sys.client().responsesFrom(net::Processor::HostCpu)),
                static_cast<double>(r.host_frames), 16.0);
}

TEST(System, StatefulFunctionSharesCoherentState)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal, funcs::FunctionId::Count);
    ServerSystem sys(eq, cfg);
    ASSERT_NE(sys.domain(), nullptr)
        << "stateful + HAL => CXL-SNIC emulation with coherence";
    const auto r = runConstant(sys, 70.0);
    EXPECT_GT(r.host_frames, 0u);
    const auto &st = sys.domain()->stats();
    EXPECT_GT(st.accesses, 0u);
    EXPECT_GT(st.remoteTransfers, 0u)
        << "cooperative stateful processing causes coherence traffic";
    EXPECT_TRUE(sys.domain()->checkSingleWriterInvariant());
}

TEST(System, StatelessHalHasNoCoherenceDomain)
{
    EventQueue eq;
    ServerSystem sys(eq, cfgFor(Mode::Hal, funcs::FunctionId::Nat));
    EXPECT_EQ(sys.domain(), nullptr);
}

TEST(System, CoherenceOverheadIsSmall)
{
    // §VII-B methodology check: running the stateful function with
    // coherence vs "like a stateless one" changes throughput by well
    // under 5% and p99 modestly.
    auto cfg = cfgFor(Mode::Hal, funcs::FunctionId::Count);
    EventQueue eq1;
    ServerSystem with(eq1, cfg);
    cfg.coherent_state = false;
    EventQueue eq2;
    ServerSystem without(eq2, cfg);
    const auto rw = runConstant(with, 60.0);
    const auto ro = runConstant(without, 60.0);
    EXPECT_NEAR(rw.delivered_gbps / ro.delivered_gbps, 1.0, 0.05);
    EXPECT_LT(rw.p99_us, ro.p99_us * 2.0 + 5.0);

    // The same holds when the stateful stage feeds an accelerator
    // (§V-C): the coherent access is a pipeline stage, not serialization
    // slot time that every packet behind it waits on. Short windows keep
    // the four crypto/REM runs cheap.
    for (funcs::FunctionId second :
         {funcs::FunctionId::Crypto, funcs::FunctionId::Rem}) {
        SCOPED_TRACE(funcs::functionName(second));
        auto pipe = cfgFor(Mode::Hal, funcs::FunctionId::Count);
        pipe.pipeline_second = second;
        EventQueue eq3;
        ServerSystem coherent(eq3, pipe);
        pipe.coherent_state = false;
        EventQueue eq4;
        ServerSystem stateless(eq4, pipe);
        const auto pc = runConstant(coherent, 60.0, 2 * kMs, 8 * kMs);
        const auto ps = runConstant(stateless, 60.0, 2 * kMs, 8 * kMs);
        EXPECT_NEAR(pc.delivered_gbps / ps.delivered_gbps, 1.0, 0.05);
        EXPECT_LT(pc.p99_us, ps.p99_us * 1.1 + 1.0);
    }
}

TEST(System, SlbWorseThanHal)
{
    // §IV: SLB either drops (few cores) or inflates latency; HAL
    // dominates it at the same offered load.
    auto slb_cfg = cfgFor(Mode::Slb, funcs::FunctionId::Nat);
    slb_cfg.slb_cores = 4;
    slb_cfg.slb_fwd_th_gbps = 20.0;
    EventQueue eq1, eq2;
    ServerSystem slb(eq1, slb_cfg);
    ServerSystem hal(eq2, cfgFor(Mode::Hal, funcs::FunctionId::Nat));
    const auto rs = runConstant(slb, 80.0);
    const auto ra = runConstant(hal, 80.0);
    EXPECT_GT(ra.delivered_gbps, rs.delivered_gbps - 1.0);
    EXPECT_GT(rs.p99_us, ra.p99_us)
        << "the software forwarding path must cost latency";
}

TEST(System, HostSlbAlwaysHotAndSlower)
{
    // §IV's host-side SLB alternative: works at high rates, but the
    // host burns power at every rate and the double DPDK pass (plus
    // two PCIe crossings) inflates the below-threshold latency
    // relative to HAL.
    auto hal_cfg = cfgFor(Mode::Hal, funcs::FunctionId::DpdkFwd);
    auto hslb_cfg = cfgFor(Mode::HostSlb, funcs::FunctionId::DpdkFwd);
    hslb_cfg.slb_fwd_th_gbps = 35.0;
    EventQueue eq1, eq2;
    ServerSystem hal(eq1, hal_cfg);
    ServerSystem hslb(eq2, hslb_cfg);
    const auto ra = runConstant(hal, 20.0);
    const auto rs = runConstant(hslb, 20.0);
    EXPECT_NEAR(rs.delivered_gbps, ra.delivered_gbps, 1.0);
    EXPECT_GT(rs.p99_us, ra.p99_us * 1.5)
        << "the paper measures 2.3x HAL's p99 for MTU DPDK packets";
    EXPECT_GT(rs.system_power_w, ra.system_power_w + 20.0)
        << "the host never sleeps when it runs the balancer";
    EXPECT_GT(rs.snic_frames, 0u)
        << "below Fwd_Th the SNIC does the processing";
}

TEST(System, PipelineEndToEnd)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal, funcs::FunctionId::Nat);
    cfg.pipeline_second = funcs::FunctionId::Rem;
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 50.0, 20 * kMs, 60 * kMs);
    EXPECT_GT(r.delivered_gbps, 45.0);
    EXPECT_GT(r.host_frames, 0u)
        << "the combined stage rate is below 50, so HAL must divert";
}

TEST(System, RemAccelConstantTailWhenSaturated)
{
    // Fig. 4 note: the REM accelerator drops beyond its rate and the
    // measured latency (of surviving packets) stays bounded.
    EventQueue eq;
    auto cfg = cfgFor(Mode::SnicOnly, funcs::FunctionId::Rem);
    ServerSystem sys(eq, cfg);
    const auto r60 = runConstant(sys, 60.0, 10 * kMs, 60 * kMs);
    const auto r90 = runConstant(sys, 90.0, 10 * kMs, 60 * kMs);
    EXPECT_NEAR(r60.delivered_gbps, r90.delivered_gbps, 2.0);
    EXPECT_NEAR(r90.p99_us / r60.p99_us, 1.0, 0.35);
}

TEST(System, RemScansTheConfiguredRuleset)
{
    // rem_ruleset picks the automaton exactly where it picks the
    // profile: REM alone. A pipeline keeps teakettle for both.
    auto states = [](alg::RulesetKind kind) {
        return alg::AhoCorasick(
                   alg::makeRuleset(kind, funcs::RemFunction::kRules,
                                    funcs::RemFunction::kSeed))
            .stateCount();
    };
    const std::size_t snort = states(alg::RulesetKind::SnortLiterals);
    const std::size_t tea = states(alg::RulesetKind::Teakettle);
    EXPECT_EQ(snort, 24549u);
    EXPECT_EQ(tea, 6653u);

    EventQueue eq1, eq2;
    auto cfg = cfgFor(Mode::Hal, funcs::FunctionId::Rem);
    cfg.rem_ruleset = alg::RulesetKind::SnortLiterals;
    ServerSystem alone(eq1, cfg);
    EXPECT_EQ(dynamic_cast<funcs::RemFunction &>(alone.function())
                  .automaton()
                  .stateCount(),
              snort);

    cfg.function = funcs::FunctionId::Nat;
    cfg.pipeline_second = funcs::FunctionId::Rem;
    ServerSystem piped(eq2, cfg);
    const auto &pipe =
        dynamic_cast<const funcs::PipelineFunction &>(piped.function());
    EXPECT_EQ(dynamic_cast<const funcs::RemFunction &>(pipe.second())
                  .automaton()
                  .stateCount(),
              tea);
}

TEST(System, WindowedMaxAtLeastAverage)
{
    EventQueue eq;
    ServerSystem sys(eq, cfgFor(Mode::Hal, funcs::FunctionId::Nat));
    const auto r = sys.run(net::makeTrace(net::TraceKind::Hadoop),
                           20 * kMs, 200 * kMs, 2 * kMs);
    EXPECT_GE(r.max_window_gbps, r.delivered_gbps);
    EXPECT_GT(r.max_window_gbps, 2.0 * r.delivered_gbps)
        << "hadoop's bursts should show up in the windowed max";
}

TEST(System, PowerAnchorsMatchTableV)
{
    // Table V: SNIC-only ~200 W; host-only NAT ~268 W (web row).
    EventQueue eq1, eq2;
    ServerSystem snic(eq1, cfgFor(Mode::SnicOnly, funcs::FunctionId::Nat));
    ServerSystem host(eq2, cfgFor(Mode::HostOnly, funcs::FunctionId::Nat));
    const auto rs = runConstant(snic, 20.0);
    const auto rh = runConstant(host, 20.0);
    EXPECT_NEAR(rs.system_power_w, 200.0, 2.0);
    EXPECT_NEAR(rh.system_power_w, 268.0, 3.0);
}

TEST(System, DirectorSplitModesAgreeOnShares)
{
    for (SplitMode mode : {SplitMode::TokenBucket, SplitMode::RoundRobin}) {
        EventQueue eq;
        auto cfg = cfgFor(Mode::Hal, funcs::FunctionId::Nat);
        cfg.split_mode = mode;
        ServerSystem sys(eq, cfg);
        const auto r = runConstant(sys, 80.0, 20 * kMs, 80 * kMs);
        EXPECT_NEAR(r.delivered_gbps, 80.0, 2.5)
            << "mode " << static_cast<int>(mode);
        const double snic_share =
            static_cast<double>(r.snic_frames) /
            static_cast<double>(r.snic_frames + r.host_frames);
        EXPECT_NEAR(snic_share, 35.0 / 80.0, 0.08)
            << "mode " << static_cast<int>(mode);
    }
}
