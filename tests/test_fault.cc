/**
 * @file
 * Fault injection and graceful degradation: config validation, the
 * director's device-boundary clamp and failover override, and
 * end-to-end drills — host crash under HAL (the acceptance
 * scenario), SNIC crash, control-channel loss, LBP stall,
 * accelerator failure, link loss bursts, and core stalls — all
 * checked for recovery and for bit-identical reproducibility.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/server.hh"
#include "fault/fault.hh"

using namespace halsim;
using namespace halsim::core;

namespace {

ServerConfig
cfgFor(Mode mode, funcs::FunctionId fn = funcs::FunctionId::Nat)
{
    ServerConfig cfg;
    cfg.mode = mode;
    cfg.function = fn;
    return cfg;
}

RunResult
runConstant(ServerSystem &sys, double rate_gbps, Tick warmup = 20 * kMs,
            Tick measure = 60 * kMs)
{
    return sys.run(std::make_unique<net::ConstantRate>(rate_gbps), warmup,
                   measure);
}

} // namespace

// --- satellite: configuration validation -----------------------------

TEST(FaultConfig, RejectsZeroCores)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.host_cores = 0;
    EXPECT_THROW(ServerSystem(eq, cfg), std::invalid_argument);
    cfg = cfgFor(Mode::Hal);
    cfg.snic_cores = 0;
    EXPECT_THROW(ServerSystem(eq, cfg), std::invalid_argument);
}

TEST(FaultConfig, ZeroHostCoresFineWhenHostUnused)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::SnicOnly);
    cfg.host_cores = 0;
    EXPECT_NO_THROW(ServerSystem(eq, cfg));
}

TEST(FaultConfig, RejectsWatermarkAboveRingSize)
{
    // WM_High counts ring descriptors, so a watermark above the ring
    // size could never trip.
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.lbp.wm_high = proc::kRingDescriptors + 1;
    EXPECT_THROW(ServerSystem(eq, cfg), std::invalid_argument);
    cfg.lbp.wm_high = proc::kRingDescriptors;
    EXPECT_NO_THROW(ServerSystem(eq, cfg));
}

TEST(FaultConfig, RejectsInvertedThresholds)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.lbp.initial_fwd_gbps = 0.1; // below kMinFwdGbps = 0.5
    EXPECT_THROW(ServerSystem(eq, cfg), std::invalid_argument);
    cfg = cfgFor(Mode::Hal);
    cfg.lbp.initial_fwd_gbps = 200.0; // above kMaxFwdGbps = 100
    EXPECT_THROW(ServerSystem(eq, cfg), std::invalid_argument);
}

TEST(FaultConfig, ValidationMessageNamesField)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.lbp.wm_low = 100; // above wm_high = 48
    try {
        ServerSystem sys(eq, cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("lbp.wm_low"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FaultConfig, RejectsSlbCoresThatLeaveNoFunctionCore)
{
    // The SNIC-side SLB takes its cores from snic_cores, the host-side
    // one from host_cores; each must leave the function one core.
    EventQueue eq;
    for (const Mode mode : {Mode::Slb, Mode::HostSlb}) {
        auto cfg = cfgFor(mode);
        cfg.slb_cores = 8;
        try {
            ServerSystem sys(eq, cfg);
            ADD_FAILURE() << modeName(mode) << ": expected rejection";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("slb_cores"),
                      std::string::npos)
                << e.what();
        }
        cfg.slb_cores = 7;
        EXPECT_NO_THROW(ServerSystem(eq, cfg)) << modeName(mode);
    }
}

TEST(ConfigValidation, DefaultServerConfigIsValid)
{
    EXPECT_TRUE(ServerConfig{}.validate().empty());
}

TEST(ConfigValidation, RejectsFramesTheModelCannotCarry)
{
    const auto mentions = [](const std::vector<std::string> &errors,
                             const std::string &what) {
        return std::any_of(errors.begin(), errors.end(),
                           [&what](const std::string &e) {
                               return e.find(what) != std::string::npos;
                           });
    };

    // Every violation is named in one pass: a frame below the 64 B
    // minimum alongside two unrelated faults.
    ServerConfig cfg;
    cfg.mode = Mode::HostOnly;
    cfg.host_cores = 0;
    cfg.lbp.epoch = 0;
    cfg.frame_bytes = 41; // one byte short of the headers
    auto errors = cfg.validate();
    EXPECT_EQ(errors.size(), 3u);
    EXPECT_TRUE(mentions(errors, "host_cores"));
    EXPECT_TRUE(mentions(errors, "lbp.epoch"));
    EXPECT_TRUE(mentions(errors, "frame_bytes (41) must be >= 64"));

    // The same for a frame one byte past the largest IPv4 packet,
    // whose 16-bit total length would wrap.
    cfg.frame_bytes = net::kMaxFrameBytes + 1;
    errors = cfg.validate();
    EXPECT_EQ(errors.size(), 3u);
    EXPECT_TRUE(mentions(errors, "host_cores"));
    EXPECT_TRUE(mentions(errors, "lbp.epoch"));
    EXPECT_TRUE(mentions(errors, "frame_bytes (65550) must be <= 65549"));

    cfg = ServerConfig{};
    cfg.function = funcs::FunctionId::DpdkFwd;
    cfg.frame_bytes = net::kSmallFrameBytes - 1;
    EXPECT_TRUE(mentions(cfg.validate(), "frame_bytes"));
    cfg.frame_bytes = net::kSmallFrameBytes;
    EXPECT_TRUE(cfg.validate().empty());
    cfg.frame_bytes = net::kMaxFrameBytes;
    EXPECT_TRUE(cfg.validate().empty());
    cfg.frame_bytes = net::kMaxFrameBytes + 1;
    EXPECT_EQ(cfg.validate().size(), 1u);
    cfg.frame_bytes = net::kSmallFrameBytes;

    // A KVS request (41 B of payload) needs an 83 B frame, alone or as
    // a pipeline's second stage.
    cfg.function = funcs::FunctionId::Kvs;
    EXPECT_TRUE(mentions(cfg.validate(), "frame_bytes (64) must be >= 83"));
    cfg.frame_bytes = 82;
    EXPECT_EQ(cfg.validate().size(), 1u);
    cfg.frame_bytes = 83;
    EXPECT_TRUE(cfg.validate().empty());
    cfg.function = funcs::FunctionId::Nat;
    cfg.pipeline_second = funcs::FunctionId::Kvs;
    cfg.frame_bytes = 64;
    EXPECT_TRUE(mentions(cfg.validate(), "with kvs"));
    cfg.frame_bytes = 83;
    EXPECT_TRUE(cfg.validate().empty());
}

// --- satellite: director clamps at the device boundary ---------------

TEST(FaultDirector, ClampsThresholdAtDeviceBoundary)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    ServerSystem sys(eq, cfg);
    auto *dir = sys.director();
    ASSERT_NE(dir, nullptr);

    dir->setFwdTh(-5.0);
    EXPECT_DOUBLE_EQ(dir->fwdThGbps(), 0.0);
    dir->setFwdTh(1e9);
    EXPECT_DOUBLE_EQ(dir->fwdThGbps(), kMaxFwdThGbps);
    dir->setFwdTh(25.0);
    EXPECT_DOUBLE_EQ(dir->fwdThGbps(), 25.0);
    dir->setFwdTh(std::nan(""));
    EXPECT_DOUBLE_EQ(dir->fwdThGbps(), 25.0) << "NaN must be rejected";
}

TEST(FaultDirector, FailoverPinsThresholdAndRestoresLastGood)
{
    EventQueue eq;
    ServerSystem sys(eq, cfgFor(Mode::Hal));
    auto *dir = sys.director();
    ASSERT_NE(dir, nullptr);

    dir->setFwdTh(12.0);
    dir->enterFailover(kMaxFwdThGbps);
    EXPECT_TRUE(dir->inFailover());
    EXPECT_DOUBLE_EQ(dir->fwdThGbps(), kMaxFwdThGbps);

    // LBP updates during failover are recorded, not applied.
    dir->setFwdTh(17.0);
    EXPECT_DOUBLE_EQ(dir->fwdThGbps(), kMaxFwdThGbps);

    dir->exitFailover();
    EXPECT_FALSE(dir->inFailover());
    EXPECT_DOUBLE_EQ(dir->fwdThGbps(), 17.0)
        << "recovery resumes from the last-known-good threshold";
}

// --- tentpole acceptance: host crash under HAL -----------------------

TEST(FaultDrill, HostCrashKeepsSnicServing)
{
    // HAL at 60 Gbps splits across both processors. At t = 60 ms
    // (40 ms into the measurement window) the host fail-stops; the
    // watchdog must clamp Fwd_Th so everything stays on the SNIC,
    // and delivered throughput must recover to >= 90% of the SNIC's
    // ceiling. Under HAL one SNIC core runs the LBP, so that ceiling
    // is 7/8 of the standalone 41 Gbps NAT anchor (Table II).
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.faults.processorFailure(fault::FaultTarget::Host, 60 * kMs);
    ServerSystem sys(eq, cfg);

    // Sample SNIC bytes over a post-fault window, leaving 2 ms after
    // the crash for detection (watchdog epoch 200 us) + drain.
    std::uint64_t bytes_at_62 = 0, bytes_at_80 = 0;
    eq.scheduleFn(
        [&] { bytes_at_62 = sys.snicProcessor()->processedBytes(); },
        62 * kMs);
    eq.scheduleFn(
        [&] { bytes_at_80 = sys.snicProcessor()->processedBytes(); },
        80 * kMs);

    const auto r = runConstant(sys, 60.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_GE(r.failovers, 1u);
    EXPECT_EQ(sys.watchdog()->state(), HealthState::HostDown);
    EXPECT_TRUE(sys.director()->inFailover());
    EXPECT_DOUBLE_EQ(sys.director()->fwdThGbps(), kMaxFwdThGbps);

    const double snic_ceiling = 41.0 * 7.0 / 8.0;
    const double post_fault_gbps =
        gbps(bytes_at_80 - bytes_at_62, 18 * kMs);
    EXPECT_GE(post_fault_gbps, 0.9 * snic_ceiling)
        << "SNIC must keep serving at its ceiling";

    // The host is a black hole after the crash; only packets already
    // diverted before the clamp landed can be lost.
    EXPECT_GT(r.responses, 0u);
    EXPECT_GT(r.snic_frames, r.host_frames);
}

TEST(FaultDrill, SameSeedAndPlanReproduceIdenticalCounters)
{
    auto make = [] {
        auto cfg = cfgFor(Mode::Hal);
        cfg.seed = 7;
        cfg.faults.setSeed(7);
        cfg.faults.processorFailure(fault::FaultTarget::Host, 60 * kMs);
        cfg.faults.linkLossBurst(fault::FaultTarget::ClientLink, 0.3,
                                 30 * kMs, 10 * kMs);
        return cfg;
    };
    EventQueue eq1, eq2;
    ServerSystem a(eq1, make()), b(eq2, make());
    const auto ra = runConstant(a, 60.0);
    const auto rb = runConstant(b, 60.0);

    EXPECT_EQ(ra.sent, rb.sent);
    EXPECT_EQ(ra.responses, rb.responses);
    EXPECT_EQ(ra.drops, rb.drops);
    EXPECT_EQ(ra.snic_frames, rb.snic_frames);
    EXPECT_EQ(ra.host_frames, rb.host_frames);
    EXPECT_EQ(ra.faults_injected, rb.faults_injected);
    EXPECT_EQ(ra.faults_reverted, rb.faults_reverted);
    EXPECT_EQ(ra.failovers, rb.failovers);
    EXPECT_EQ(ra.recoveries, rb.recoveries);
    EXPECT_EQ(ra.failover_drops, rb.failover_drops);
    EXPECT_EQ(ra.ctrl_updates_dropped, rb.ctrl_updates_dropped);
    EXPECT_DOUBLE_EQ(ra.delivered_gbps, rb.delivered_gbps);
    EXPECT_DOUBLE_EQ(ra.p99_us, rb.p99_us);
    EXPECT_DOUBLE_EQ(ra.final_fwd_th_gbps, rb.final_fwd_th_gbps);
}

// --- SNIC crash: divert to host with forced wake ---------------------

TEST(FaultDrill, SnicCrashDivertsEverythingToHost)
{
    // At 20 Gbps HAL keeps the whole load on the SNIC and the host
    // sleeps. When the SNIC fail-stops the watchdog must pin Fwd_Th
    // to zero and wake the host cores; the host (80 Gbps NAT
    // ceiling) then absorbs the full offered rate.
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.faults.processorFailure(fault::FaultTarget::Snic, 50 * kMs);
    ServerSystem sys(eq, cfg);

    std::uint64_t host_at_52 = 0, host_at_70 = 0;
    eq.scheduleFn(
        [&] { host_at_52 = sys.hostProcessor()->processedBytes(); },
        52 * kMs);
    eq.scheduleFn(
        [&] { host_at_70 = sys.hostProcessor()->processedBytes(); },
        70 * kMs);

    const auto r = runConstant(sys, 20.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_GE(r.failovers, 1u);
    EXPECT_EQ(sys.watchdog()->state(), HealthState::SnicDown);
    EXPECT_DOUBLE_EQ(sys.director()->fwdThGbps(), 0.0);

    const double host_gbps = gbps(host_at_70 - host_at_52, 18 * kMs);
    EXPECT_NEAR(host_gbps, 20.0, 2.0)
        << "host must absorb the diverted stream";
}

// --- control-channel faults ------------------------------------------

TEST(FaultDrill, ControlLossTriggersFailsafeThenRecovers)
{
    // Total LBP->FPGA loss for 10 ms: no updates, no heartbeats. The
    // staleness bound (1 ms) trips, the director falls back to the
    // failsafe threshold, and once the channel heals the heartbeats
    // bring the watchdog back to Normal.
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.faults.controlLoss(1.0, 40 * kMs, 10 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 30.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_EQ(r.faults_reverted, 1u);
    EXPECT_GE(r.failovers, 1u);
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_GT(r.ctrl_updates_dropped, 0u);
    EXPECT_EQ(sys.watchdog()->state(), HealthState::Normal);
    EXPECT_GT(r.time_to_recover_us, 0.0);
    EXPECT_GT(r.degraded_us, 0.0);
}

TEST(FaultDrill, LbpStallDetectedAndRecovered)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.faults.lbpStall(40 * kMs, 20 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 30.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_GE(r.failovers, 1u);
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_EQ(sys.watchdog()->state(), HealthState::Normal);
    // Degraded for roughly the stall minus the staleness bound.
    EXPECT_GT(r.degraded_us, 10e3);
}

TEST(FaultDrill, ControlDelayAloneStaysHealthy)
{
    // Updates arrive 300 us late — stale but within the staleness
    // bound, so no failover and no lost traffic.
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.faults.controlDelay(300 * kUs, 30 * kMs, 40 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 30.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_EQ(r.failovers, 0u);
    EXPECT_EQ(r.drops, 0u);
}

// --- accelerator failure: software fallback --------------------------

TEST(FaultDrill, AccelFailureFallsBackToSoftware)
{
    // Compression runs on the SNIC's accelerator (~45 Gbps on BF-2).
    // When it dies the feed cores take over in software at a small
    // fraction of that, so delivered throughput collapses but the
    // system keeps answering.
    EventQueue eq1, eq2;
    auto healthy_cfg = cfgFor(Mode::SnicOnly, funcs::FunctionId::Compress);
    auto faulty_cfg = healthy_cfg;
    faulty_cfg.faults.accelFailure(fault::FaultTarget::Snic, 30 * kMs);

    ServerSystem healthy(eq1, healthy_cfg), faulty(eq2, faulty_cfg);
    const auto rh = runConstant(healthy, 30.0, 20 * kMs, 40 * kMs);

    // The run-end cleanup repairs even permanent faults, so sample
    // the degraded flag while the fault is live.
    bool degraded_at_50 = false;
    eq2.scheduleFn(
        [&] { degraded_at_50 = faulty.snicProcessor()->accelDegraded(); },
        50 * kMs);
    const auto rf = runConstant(faulty, 30.0, 20 * kMs, 40 * kMs);

    EXPECT_EQ(rf.faults_injected, 1u);
    EXPECT_TRUE(degraded_at_50);
    EXPECT_GT(rf.responses, 0u) << "software fallback keeps serving";
    EXPECT_LT(rf.delivered_gbps, 0.6 * rh.delivered_gbps);
    // The dead accelerator block draws no power.
    EXPECT_LT(rf.dynamic_power_w, rh.dynamic_power_w);
}

TEST(FaultDrill, AccelFaultSkippedOnCpuFunction)
{
    // NAT runs on the SNIC CPU cores; an accelerator-failure event
    // has no target and must be counted as skipped, not applied.
    EventQueue eq;
    auto cfg = cfgFor(Mode::SnicOnly, funcs::FunctionId::Nat);
    cfg.faults.accelFailure(fault::FaultTarget::Snic, 30 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 20.0);
    EXPECT_EQ(r.faults_injected, 0u);
    EXPECT_EQ(r.drops, 0u);
}

// --- link faults ------------------------------------------------------

TEST(FaultDrill, LinkLossBurstIsAccounted)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::HostOnly);
    cfg.faults.linkLossBurst(fault::FaultTarget::ClientLink, 0.5,
                             30 * kMs, 20 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 20.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_EQ(r.faults_reverted, 1u);
    EXPECT_GT(sys.clientLink()->faultLost(), 0u);
    EXPECT_EQ(sys.clientLink()->corrupted(), 0u);
    EXPECT_GT(r.drops, 0u) << "fault losses must appear in drops";
    EXPECT_LT(r.responses, r.sent);
    // Roughly half of 20 ms of traffic at 20 Gbps is lost.
    const double loss = r.lossFraction();
    EXPECT_GT(loss, 0.05);
    EXPECT_LT(loss, 0.25);
}

TEST(FaultDrill, ReturnLinkCorruptionDropsResponses)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::HostOnly);
    cfg.faults.linkCorruption(fault::FaultTarget::ReturnLink, 0.25,
                              30 * kMs, 20 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 20.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_GT(sys.returnLink()->corrupted(), 0u);
    EXPECT_LT(r.responses, r.sent);
}

TEST(FaultDrill, SwitchPortDownBlackholesAreCountedAsDrops)
{
    // Frames the eSwitch blackholes at a downed port are losses: they
    // must reach RunResult::drops, or they sit in in-flight forever and
    // lossFraction() reads zero.
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.faults.switchPortDown(fault::FaultTarget::Host, 2 * kMs, 5 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 60.0, 0, 20 * kMs);

    ASSERT_EQ(r.faults_injected, 1u);
    const std::uint64_t blackholed = sys.eswitch()->blackholed();
    ASSERT_GT(blackholed, 0u);
    EXPECT_GE(r.drops, blackholed);
    EXPECT_LT(r.in_flight_at_window_end, blackholed);
    EXPECT_GT(r.lossFraction(), 0.1);
}

TEST(FaultDrill, WarmupPortDownDropsStayOutOfTheWindow)
{
    // The port is down only during warmup: its blackholed frames are
    // warmup losses, so the measurement window reports no drops.
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.faults.switchPortDown(fault::FaultTarget::Host, 0, 5 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 60.0, 5 * kMs, 10 * kMs);

    ASSERT_GT(sys.eswitch()->blackholed(), 0u);
    EXPECT_EQ(r.drops, 0u);
    EXPECT_EQ(r.lossFraction(), 0.0);
    EXPECT_GE(r.responses, r.sent);
}

// --- core-level faults ------------------------------------------------

TEST(FaultDrill, CoreStallBacksUpThenDrains)
{
    // All SNIC cores hang for 5 ms at a rate the ring cannot absorb:
    // tail-drops during the stall, full-rate service after it.
    EventQueue eq;
    auto cfg = cfgFor(Mode::SnicOnly);
    cfg.faults.coreStall(fault::FaultTarget::Snic, fault::kAllCores,
                         40 * kMs, 5 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 20.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_EQ(r.faults_reverted, 1u);
    EXPECT_EQ(sys.snicProcessor()->aliveCores(),
              sys.snicProcessor()->config().cores);
    EXPECT_GT(r.drops, 0u) << "stalled rings must tail-drop";
    EXPECT_GT(r.responses, 0u) << "service resumes after the stall";
}

TEST(FaultDrill, SingleCoreStallDegradesButServes)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::SnicOnly);
    cfg.faults.coreStall(fault::FaultTarget::Snic, 0, 30 * kMs);
    ServerSystem sys(eq, cfg);

    unsigned alive_at_50 = 0;
    eq.scheduleFn(
        [&] { alive_at_50 = sys.snicProcessor()->aliveCores(); },
        50 * kMs);
    const auto r = runConstant(sys, 10.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_EQ(alive_at_50, sys.snicProcessor()->config().cores - 1);
    EXPECT_GT(r.responses, 0u);
}

TEST(FaultDrill, SlowdownThrottlesThroughput)
{
    EventQueue eq1, eq2;
    auto healthy_cfg = cfgFor(Mode::SnicOnly);
    auto slow_cfg = healthy_cfg;
    slow_cfg.faults.coreSlowdown(fault::FaultTarget::Snic, 0.25,
                                 20 * kMs);
    ServerSystem healthy(eq1, healthy_cfg), slow(eq2, slow_cfg);
    const auto rh = runConstant(healthy, 38.0);
    const auto rs = runConstant(slow, 38.0);

    EXPECT_EQ(rs.faults_injected, 1u);
    EXPECT_LT(rs.delivered_gbps, 0.5 * rh.delivered_gbps)
        << "quarter-speed cores cannot sustain the near-ceiling rate";
}

// --- transient host blip: full failover round trip --------------------

TEST(FaultDrill, TransientHostBlipRecoversWithinWatchdogWindow)
{
    EventQueue eq;
    auto cfg = cfgFor(Mode::Hal);
    cfg.faults.processorFailure(fault::FaultTarget::Host, 40 * kMs,
                                15 * kMs);
    ServerSystem sys(eq, cfg);
    const auto r = runConstant(sys, 60.0);

    EXPECT_EQ(r.faults_injected, 1u);
    EXPECT_EQ(r.faults_reverted, 1u);
    EXPECT_GE(r.failovers, 1u);
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_EQ(sys.watchdog()->state(), HealthState::Normal);
    // Detection + recovery both bounded by a few watchdog epochs.
    EXPECT_LE(r.time_to_recover_us, 16e3);
    EXPECT_GT(r.host_frames, 0u)
        << "host serves again after the blip";
}

// --- satellite: same-tick fault events fire in plan order -------------

TEST(FaultInjector, SameTickEventsFireInPlanOrder)
{
    EventQueue eq;
    std::vector<std::string> log;
    fault::FaultHooks fh;
    fh.control_impair = [&log](double loss, Tick, Rng *) {
        log.push_back("impair " + std::to_string(loss).substr(0, 4));
    };
    fh.control_restore = [&log] { log.push_back("restore"); };

    // Three events colliding at t = 2 ms: the first event's revert
    // plus two applies. The contract is plan order — the order the
    // plan lists them, each event's apply before its own revert — not
    // whatever the event heap does with same-tick ties.
    fault::FaultPlan plan;
    plan.controlLoss(0.25, 1 * kMs, 1 * kMs); // reverts at 2 ms
    plan.controlLoss(0.50, 2 * kMs, 1 * kMs); // applies at 2 ms
    plan.controlLoss(0.75, 2 * kMs, 2 * kMs); // applies at 2 ms

    fault::FaultInjector inj(eq, plan, std::move(fh));
    inj.start(eq.now());
    eq.runUntil(10 * kMs);

    ASSERT_EQ(log.size(), 6u);
    EXPECT_EQ(log[0], "impair 0.25"); // t = 1 ms
    EXPECT_EQ(log[1], "restore");     // t = 2 ms: revert of event 0...
    EXPECT_EQ(log[2], "impair 0.50"); // ...then applies in plan order
    EXPECT_EQ(log[3], "impair 0.75");
    EXPECT_EQ(log[4], "restore");     // t = 3 ms
    EXPECT_EQ(log[5], "restore");     // t = 4 ms
    EXPECT_EQ(inj.injected(), 3u);
    EXPECT_EQ(inj.reverted(), 3u);
    EXPECT_EQ(inj.active(), 0u);
}

TEST(FaultInjector, SameTickOrderSurvivesReversedPlanInsertion)
{
    // The same two colliding applies inserted in the opposite order
    // must fire in the opposite order: the plan is the contract.
    for (const bool reversed : {false, true}) {
        EventQueue eq;
        std::vector<double> fired;
        fault::FaultHooks fh;
        fh.control_impair = [&fired](double loss, Tick, Rng *) {
            fired.push_back(loss);
        };
        fh.control_restore = [] {};

        fault::FaultPlan plan;
        if (reversed) {
            plan.controlLoss(0.75, 5 * kMs, 1 * kMs);
            plan.controlLoss(0.25, 5 * kMs, 1 * kMs);
        } else {
            plan.controlLoss(0.25, 5 * kMs, 1 * kMs);
            plan.controlLoss(0.75, 5 * kMs, 1 * kMs);
        }

        fault::FaultInjector inj(eq, plan, std::move(fh));
        inj.start(eq.now());
        eq.runUntil(10 * kMs);

        ASSERT_EQ(fired.size(), 2u);
        EXPECT_EQ(fired[0], reversed ? 0.75 : 0.25);
        EXPECT_EQ(fired[1], reversed ? 0.25 : 0.75);
    }
}

TEST(FaultInjector, FleetKindsSkippedWithoutFleetHooks)
{
    // A fleet plan running against a single-server hook set counts as
    // skipped, not an error — same contract as absent processors.
    EventQueue eq;
    fault::FaultPlan plan;
    plan.backendCrash(0, 1 * kMs);
    plan.backendStall(1, 1 * kMs, 1 * kMs);
    plan.probeLoss(0.5, 1 * kMs, 1 * kMs);
    fault::FaultInjector inj(eq, plan, fault::FaultHooks{});
    inj.start(eq.now());
    eq.runUntil(5 * kMs);
    EXPECT_EQ(inj.injected(), 0u);
    EXPECT_EQ(inj.skipped(), 3u);
}
