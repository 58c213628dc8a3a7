/**
 * @file
 * HAL components in isolation: traffic monitor rate estimation,
 * traffic director splitting (token bucket and round-robin) with
 * checksum-correct rewrites, traffic merger identity rewriting, LBP
 * (Algorithm 1) threshold adaptation, and the SLB baseline's
 * forwarding bottleneck.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/hlb.hh"
#include "core/lbp.hh"
#include "core/slb.hh"
#include "funcs/registry.hh"
#include "net/traffic.hh"
#include "proc/processor.hh"

using namespace halsim;
using namespace halsim::core;

namespace {

const net::Ipv4Addr kSnicIp(10, 0, 0, 2);
const net::Ipv4Addr kHostIp(10, 0, 0, 3);
const net::MacAddr kSnicMac = net::MacAddr::fromUint(0x5A1C);
const net::MacAddr kHostMac = net::MacAddr::fromUint(0xA057);

struct Capture : net::PacketSink
{
    void
    accept(net::PacketPtr pkt) override
    {
        if (pkt->ip().dst() == kHostIp)
            ++toHost;
        else
            ++toSnic;
        bytesTotal += pkt->size();
        checksumOk = checksumOk && pkt->ip().checksumOk();
        last = std::move(pkt);
    }

    std::uint64_t toSnic = 0;
    std::uint64_t toHost = 0;
    std::uint64_t bytesTotal = 0;
    bool checksumOk = true;
    net::PacketPtr last;
};

net::PacketPtr
requestPacket()
{
    auto pkt = net::makeUdpPacket(net::MacAddr::fromUint(1), kSnicMac,
                                  net::Ipv4Addr(10, 0, 0, 1), kSnicIp,
                                  40000, 9000, {}, net::kMtuFrameBytes);
    pkt->clientMac = net::MacAddr::fromUint(1);
    pkt->clientIp = net::Ipv4Addr(10, 0, 0, 1);
    pkt->clientPort = 40000;
    return pkt;
}

TrafficDirector::Config
directorCfg(SplitMode mode, double fwd_th)
{
    TrafficDirector::Config cfg;
    cfg.snic_ip = kSnicIp;
    cfg.host_ip = kHostIp;
    cfg.host_mac = kHostMac;
    cfg.mode = mode;
    cfg.initial_fwd_th_gbps = fwd_th;
    return cfg;
}

/** Push packets through a director at a constant offered rate. */
void
offer(EventQueue &eq, TrafficDirector &dir, double gbps_rate, Tick dur)
{
    const Tick gap = transferTicks(net::kMtuFrameBytes, gbps_rate);
    for (Tick t = eq.now(); t < eq.now() + dur; t += gap) {
        eq.scheduleFn([&dir] { dir.accept(requestPacket()); }, t);
    }
    eq.run();
}

} // namespace

TEST(TrafficMonitor, EstimatesRatePerEpoch)
{
    EventQueue eq;
    TrafficMonitor mon(eq);
    ASSERT_EQ(TrafficMonitor::kEpoch, 10 * kUs);
    mon.start();
    // 100 MTU frames in 10 us = 120 Gbps... use 10 frames = 12 Gbps.
    for (int i = 0; i < 10; ++i)
        mon.onFrame(1500);
    eq.runUntil(TrafficMonitor::kEpoch);
    EXPECT_NEAR(mon.rateRxGbps(), 12.0, 0.01);
    // Next epoch with nothing received: rate falls to zero.
    eq.runUntil(2 * TrafficMonitor::kEpoch);
    EXPECT_EQ(mon.rateRxGbps(), 0.0);
    mon.stop();
}

TEST(TrafficDirector, AllToSnicBelowThreshold)
{
    EventQueue eq;
    Capture out;
    TrafficMonitor mon(eq);
    TrafficDirector dir(eq, directorCfg(SplitMode::TokenBucket, 50.0),
                        mon, out);
    offer(eq, dir, 30.0, 5 * kMs);
    EXPECT_GT(out.toSnic, 0u);
    EXPECT_EQ(out.toHost, 0u);
    EXPECT_EQ(dir.toHost(), 0u);
}

TEST(TrafficDirector, SplitsExcessAboveThreshold)
{
    EventQueue eq;
    Capture out;
    TrafficMonitor mon(eq);
    TrafficDirector dir(eq, directorCfg(SplitMode::TokenBucket, 30.0),
                        mon, out);
    offer(eq, dir, 80.0, 10 * kMs);
    const double snic_share =
        static_cast<double>(out.toSnic) /
        static_cast<double>(out.toSnic + out.toHost);
    // 30 of 80 Gbps stays on the SNIC.
    EXPECT_NEAR(snic_share, 30.0 / 80.0, 0.03);
    EXPECT_TRUE(out.checksumOk)
        << "dst rewrites must patch the checksum";
}

TEST(TrafficDirector, RoundRobinSplitsExcess)
{
    EventQueue eq;
    Capture out;
    TrafficMonitor mon(eq);
    mon.start();
    TrafficDirector dir(eq, directorCfg(SplitMode::RoundRobin, 30.0),
                        mon, out);
    // The monitor self-reschedules forever, so drive by time, not by
    // queue drain.
    const Tick gap = transferTicks(net::kMtuFrameBytes, 80.0);
    for (Tick t = 0; t < 10 * kMs; t += gap)
        eq.scheduleFn([&dir] { dir.accept(requestPacket()); }, t);
    eq.runUntil(10 * kMs + 1);
    mon.stop();
    const double snic_share =
        static_cast<double>(out.toSnic) /
        static_cast<double>(out.toSnic + out.toHost);
    EXPECT_NEAR(snic_share, 30.0 / 80.0, 0.05);
}

TEST(TrafficDirector, FlowAffinityKeepsFlowsTogether)
{
    EventQueue eq;
    Capture out;
    TrafficMonitor mon(eq);
    mon.start();
    TrafficDirector dir(eq, directorCfg(SplitMode::FlowAffinity, 30.0),
                        mon, out);
    // Emit packets from 64 distinct flows at 80 Gbps; every packet of
    // a flow must take the same path.
    const Tick gap = transferTicks(net::kMtuFrameBytes, 80.0);
    std::uint32_t flow = 0;
    for (Tick t = 0; t < 10 * kMs; t += gap) {
        const std::uint32_t f = flow++ % 64;
        eq.scheduleFn(
            [&dir, f] {
                auto pkt = requestPacket();
                pkt->flowHash = f * 0x9E3779B9u;
                dir.accept(std::move(pkt));
            },
            t);
    }
    eq.runUntil(10 * kMs + 1);
    mon.stop();
    // The split is a pure function of the flow hash, so whole flows
    // stick to one side while both sides stay in use and the share
    // still approximates the excess fraction.
    EXPECT_GT(out.toSnic, 0u);
    EXPECT_GT(out.toHost, 0u);
    const double share = static_cast<double>(out.toSnic) /
                         static_cast<double>(out.toSnic + out.toHost);
    EXPECT_NEAR(share, 30.0 / 80.0, 0.15)
        << "flow-granular split still approximates the excess";
}

TEST(TrafficDirector, DivertedPacketsAreMarkedAndRetargeted)
{
    EventQueue eq;
    Capture out;
    TrafficMonitor mon(eq);
    TrafficDirector dir(eq, directorCfg(SplitMode::TokenBucket, 0.0),
                        mon, out);
    dir.accept(requestPacket());
    eq.run();
    ASSERT_EQ(out.toHost, 1u);
    EXPECT_TRUE(out.last->directedToHost);
    EXPECT_EQ(out.last->eth().dst(), kHostMac);
}

TEST(TrafficDirector, ThresholdUpdateTakesEffect)
{
    EventQueue eq;
    Capture out;
    TrafficMonitor mon(eq);
    TrafficDirector dir(eq, directorCfg(SplitMode::TokenBucket, 100.0),
                        mon, out);
    offer(eq, dir, 50.0, 2 * kMs);
    EXPECT_EQ(out.toHost, 0u);
    dir.setFwdTh(10.0);
    EXPECT_NEAR(dir.fwdThGbps(), 10.0, 1e-9);
    const std::uint64_t host_before = out.toHost;
    offer(eq, dir, 50.0, 2 * kMs);
    EXPECT_GT(out.toHost, host_before)
        << "lowering Fwd_Th must start diverting";
}

TEST(TrafficMerger, RewritesHostIdentityOnly)
{
    EventQueue eq;
    Capture out;
    TrafficMerger merger({kSnicIp, kHostIp, kSnicMac}, out);

    // A host-sourced response.
    auto host_resp = requestPacket();
    host_resp->ip().setSrcRaw(kHostIp);
    host_resp->ip().setDstRaw(net::Ipv4Addr(10, 0, 0, 1));
    host_resp->ip().fillChecksum();
    merger.accept(std::move(host_resp));
    EXPECT_EQ(merger.merged(), 1u);
    EXPECT_EQ(out.last->ip().src(), kSnicIp)
        << "clients must see the SNIC identity";
    EXPECT_EQ(out.last->eth().src(), kSnicMac);
    EXPECT_TRUE(out.last->ip().checksumOk());

    // An SNIC-sourced response passes untouched.
    auto snic_resp = requestPacket();
    snic_resp->ip().setSrcRaw(kSnicIp);
    snic_resp->ip().fillChecksum();
    merger.accept(std::move(snic_resp));
    EXPECT_EQ(merger.merged(), 1u);
    EXPECT_EQ(merger.total(), 2u);
}

TEST(Lbp, RaisesThresholdWhenSnicUnderutilized)
{
    // Feed the SNIC below its capacity: occupancy stays low, so the
    // policy walks Fwd_Th upward from its initial value.
    EventQueue eq;
    Capture out;
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    proc::Processor::Config pc;
    pc.platform = funcs::Platform::SnicBf2;
    pc.profile = funcs::profile(funcs::Platform::SnicBf2,
                                funcs::FunctionId::Nat);
    pc.cores = 8;
    pc.service_mac = kSnicMac;
    pc.service_ip = kSnicIp;
    proc::Processor snic(eq, pc, *nat, nullptr, out);

    TrafficMonitor mon(eq);
    TrafficDirector dir(eq, directorCfg(SplitMode::TokenBucket, 5.0), mon,
                        snic.input());
    LoadBalancingPolicy::Config lc;
    lc.initial_fwd_gbps = 5.0;
    LoadBalancingPolicy lbp(eq, lc, snic, dir);
    lbp.start();

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(20.0),
                              dir);
    gen.start(50 * kMs);
    eq.runUntil(55 * kMs);
    lbp.stop();
    eq.run();
    // SNIC NAT capacity is 41; at 20 offered it should track the
    // offered load closely, well above the initial 5.
    EXPECT_GT(lbp.fwdTh(), 18.0);
    EXPECT_GT(lbp.adjustmentsUp(), 10u);
}

TEST(Lbp, LowersThresholdWhenRingsFill)
{
    // Start just above capacity (Algorithm 1's gate only engages when
    // Fwd_Th is within Delta_TP of the achieved throughput): rings
    // overflow and the policy walks the threshold back down.
    EventQueue eq;
    Capture out;
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    proc::Processor::Config pc;
    pc.platform = funcs::Platform::SnicBf2;
    pc.profile = funcs::profile(funcs::Platform::SnicBf2,
                                funcs::FunctionId::Nat);
    pc.cores = 8;
    pc.service_mac = kSnicMac;
    pc.service_ip = kSnicIp;
    proc::Processor snic(eq, pc, *nat, nullptr, out);

    TrafficMonitor mon(eq);
    TrafficDirector dir(eq, directorCfg(SplitMode::TokenBucket, 43.0),
                        mon, snic.input());
    LoadBalancingPolicy::Config lc;
    lc.initial_fwd_gbps = 43.0;   // SNIC NAT capacity is 41
    LoadBalancingPolicy lbp(eq, lc, snic, dir);
    lbp.start();

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(80.0),
                              dir);
    gen.start(100 * kMs);
    eq.runUntil(105 * kMs);
    lbp.stop();
    eq.run();
    EXPECT_LT(lbp.fwdTh(), 41.0);
    EXPECT_GT(lbp.adjustmentsDown(), 10u);
}

TEST(Lbp, IdleWhenThresholdFarAboveThroughput)
{
    // Algorithm 1 only acts when Fwd_Th < SNIC_TP + Delta_TP.
    EventQueue eq;
    Capture out;
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    proc::Processor::Config pc;
    pc.platform = funcs::Platform::SnicBf2;
    pc.profile = funcs::profile(funcs::Platform::SnicBf2,
                                funcs::FunctionId::Nat);
    pc.cores = 8;
    pc.service_mac = kSnicMac;
    pc.service_ip = kSnicIp;
    proc::Processor snic(eq, pc, *nat, nullptr, out);
    TrafficMonitor mon(eq);
    TrafficDirector dir(eq, directorCfg(SplitMode::TokenBucket, 60.0),
                        mon, snic.input());
    LoadBalancingPolicy::Config lc;
    lc.initial_fwd_gbps = 60.0;
    LoadBalancingPolicy lbp(eq, lc, snic, dir);
    lbp.start();

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(5.0),
                              dir);
    gen.start(20 * kMs);
    eq.runUntil(25 * kMs);
    lbp.stop();
    eq.run();
    EXPECT_EQ(lbp.adjustmentsUp() + lbp.adjustmentsDown(), 0u);
    EXPECT_NEAR(lbp.fwdTh(), 60.0, 1e-9);
}

TEST(Slb, SingleCoreDropsMostForwardedTraffic)
{
    // Fig. 5: with one SLB core at 80 Gbps offered and Fwd_Th = 20,
    // the balancer core cannot move 60 Gbps and drops ~58-61%.
    EventQueue eq;
    Capture snic_out, host_out;
    proc::PowerMeter power(eq);
    SoftwareLoadBalancer::Config cfg;
    cfg.slb_cores = 1;
    cfg.fwd_th_gbps = 20.0;
    cfg.fwd_ip = kHostIp;
    cfg.fwd_mac = kHostMac;
    SoftwareLoadBalancer slb(eq, cfg, snic_out, host_out, power);

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(80.0),
                              slb.input());
    const Tick dur = 50 * kMs;
    gen.start(dur);
    eq.run();

    const double loss =
        1.0 - static_cast<double>(slb.keptLocal() + slb.forwarded()) /
                  static_cast<double>(gen.sentFrames());
    EXPECT_GT(loss, 0.4) << "one balancer core must drown";
    EXPECT_LT(loss, 0.75);
}

TEST(Slb, FourCoresKeepUp)
{
    EventQueue eq;
    Capture snic_out, host_out;
    proc::PowerMeter power(eq);
    SoftwareLoadBalancer::Config cfg;
    cfg.slb_cores = 4;
    cfg.fwd_th_gbps = 20.0;
    cfg.fwd_ip = kHostIp;
    cfg.fwd_mac = kHostMac;
    SoftwareLoadBalancer slb(eq, cfg, snic_out, host_out, power);

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(80.0),
                              slb.input());
    gen.start(50 * kMs);
    eq.run();

    // Four cores provide ~60 Gbps of forwarding capacity — just
    // enough for the 60 Gbps excess, so drops stay under ~10%.
    EXPECT_LT(slb.drops(), gen.sentFrames() / 10)
        << "four balancer cores must roughly keep up";
    // Kept fraction ~ 20/80.
    const double kept = static_cast<double>(slb.keptLocal()) /
                        static_cast<double>(gen.sentFrames());
    EXPECT_NEAR(kept, 0.25, 0.05);
}
