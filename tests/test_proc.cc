/**
 * @file
 * Processor models: rings, RSS, poll cores (throughput saturation at
 * the calibrated rate, sleep power, wake penalty), accelerators
 * (pipeline rate, fixed latency, drops), and the Processor facade.
 */

#include <gtest/gtest.h>

#include <vector>

#include "funcs/content.hh"
#include "funcs/registry.hh"
#include "net/traffic.hh"
#include "nic/dpdk_ring.hh"
#include "nic/eswitch.hh"
#include "proc/processor.hh"

using namespace halsim;
using namespace halsim::proc;

namespace {

/** Collects finished responses. */
struct Collector : net::PacketSink
{
    explicit Collector(EventQueue &eq) : eq(eq) {}

    void
    accept(net::PacketPtr pkt) override
    {
        latencies.push_back(eq.now() - pkt->clientTx);
        count++;
        bytes += pkt->size();
        last = std::move(pkt);
    }

    EventQueue &eq;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::vector<Tick> latencies;
    net::PacketPtr last;
};

net::PacketPtr
mtuPacket(Tick now, std::uint32_t hash = 0)
{
    auto pkt = net::makeUdpPacket(
        net::MacAddr::fromUint(0xC11E47), net::MacAddr::fromUint(2),
        net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2), 40000,
        9000, {}, net::kMtuFrameBytes);
    pkt->clientTx = now;
    pkt->flowHash = hash;
    pkt->clientMac = net::MacAddr::fromUint(0xC11E47);
    pkt->clientIp = net::Ipv4Addr(10, 0, 0, 1);
    pkt->clientPort = 40000;
    return pkt;
}

Processor::Config
natConfig(funcs::Platform platform, unsigned cores)
{
    Processor::Config cfg;
    cfg.platform = platform;
    cfg.profile = funcs::profile(platform, funcs::FunctionId::Nat);
    cfg.cores = cores;
    cfg.service_mac = net::MacAddr::fromUint(0x5E),
    cfg.service_ip = net::Ipv4Addr(10, 0, 0, 2);
    return cfg;
}

} // namespace

TEST(DpdkRing, FifoAndDrops)
{
    EventQueue eq;
    nic::DpdkRing ring(4);
    int notified = 0;
    ring.setNotify([&] { ++notified; });
    for (std::uint32_t i = 0; i < 6; ++i) {
        auto pkt = mtuPacket(0);
        pkt->id = i;
        ring.accept(std::move(pkt));
    }
    EXPECT_EQ(notified, 1) << "notify only on empty->nonempty";
    EXPECT_EQ(ring.occupancy(), 4u);
    EXPECT_EQ(ring.drops(), 2u);
    EXPECT_EQ(ring.dequeue()->id, 0u);
    EXPECT_EQ(ring.dequeue()->id, 1u);
}

TEST(ESwitch, RoutesByDestinationIp)
{
    EventQueue eq;
    nic::DpdkRing a(16), b(16);
    nic::ESwitch sw;
    sw.addRule(net::Ipv4Addr(10, 0, 0, 2), &a);
    sw.addRule(net::Ipv4Addr(10, 0, 0, 3), &b);

    auto p1 = mtuPacket(0);
    sw.accept(std::move(p1));   // dst 10.0.0.2
    auto p2 = mtuPacket(0);
    p2->ip().rewriteDst(net::Ipv4Addr(10, 0, 0, 3));
    sw.accept(std::move(p2));
    auto p3 = mtuPacket(0);
    p3->ip().rewriteDst(net::Ipv4Addr(9, 9, 9, 9));
    sw.accept(std::move(p3));

    EXPECT_EQ(a.occupancy(), 1u);
    EXPECT_EQ(b.occupancy(), 1u);
    EXPECT_EQ(sw.unrouted(), 1u);
}

TEST(Rss, SpreadsByFlowHash)
{
    nic::DpdkRing q0(64), q1(64), q2(64);
    nic::RssDistributor rss;
    rss.addQueue(&q0);
    rss.addQueue(&q1);
    rss.addQueue(&q2);
    for (std::uint32_t h = 0; h < 30; ++h)
        rss.accept(mtuPacket(0, h));
    EXPECT_EQ(q0.occupancy(), 10u);
    EXPECT_EQ(q1.occupancy(), 10u);
    EXPECT_EQ(q2.occupancy(), 10u);
}

TEST(FixedDelay, DelaysExactly)
{
    EventQueue eq;
    Collector out(eq);
    nic::FixedDelay d(eq, 777, out);
    d.accept(mtuPacket(0));
    eq.run();
    EXPECT_EQ(out.count, 1u);
    EXPECT_EQ(eq.now(), 777u);
}

TEST(Processor, SaturatesAtCalibratedThroughput)
{
    // Offer 80 Gbps of NAT to the 8-core BF-2 model: it must deliver
    // ~41 Gbps (Table II) and drop the rest.
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    Processor proc(eq, natConfig(funcs::Platform::SnicBf2, 8), *nat,
                   nullptr, out);

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(80.0),
                              proc.input());
    const Tick dur = 100 * kMs;
    gen.start(dur);
    eq.run();

    const double tp = gbps(out.bytes, dur);
    EXPECT_NEAR(tp, 41.0, 1.5);
    EXPECT_GT(proc.drops(), 0u);
}

TEST(Processor, DeliversOfferedLoadBelowCapacity)
{
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    Processor proc(eq, natConfig(funcs::Platform::HostSkylake, 8), *nat,
                   nullptr, out);

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(40.0),
                              proc.input());
    gen.start(50 * kMs);
    eq.run();
    EXPECT_NEAR(gbps(out.bytes, 50 * kMs), 40.0, 1.0);
    EXPECT_EQ(proc.drops(), 0u);
    EXPECT_EQ(out.count, gen.sentFrames());
}

TEST(Processor, ResponsesCarryServiceIdentity)
{
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    Processor proc(eq, natConfig(funcs::Platform::SnicBf2, 2), *nat,
                   nullptr, out);
    proc.input().accept(mtuPacket(0));
    eq.run();
    ASSERT_EQ(out.count, 1u);
    EXPECT_TRUE(out.last->isResponse);
    EXPECT_EQ(out.last->processedBy, net::Processor::SnicCpu);
    EXPECT_EQ(out.last->ip().src(), net::Ipv4Addr(10, 0, 0, 2));
    EXPECT_EQ(out.last->ip().dst(), net::Ipv4Addr(10, 0, 0, 1));
    EXPECT_TRUE(out.last->ip().checksumOk());
    EXPECT_EQ(out.last->eth().dst().toUint(), 0xC11E47u);
}

TEST(Processor, PollingBurnsPowerWhenIdle)
{
    // §III-B: DPDK busy-polling keeps cores hot. Without sleep, the
    // dynamic power is cores * active watts even with zero traffic.
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    auto cfg = natConfig(funcs::Platform::HostSkylake, 8);
    Processor proc(eq, cfg, *nat, nullptr, out);
    eq.scheduleFn([] {}, 10 * kMs);
    eq.run();
    EXPECT_NEAR(proc.averageDynamicW(), 8 * cfg.profile.core_active_w,
                0.01);
}

TEST(Processor, SleepCutsIdlePower)
{
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    auto cfg = natConfig(funcs::Platform::HostSkylake, 8);
    cfg.sleep = true;
    Processor proc(eq, cfg, *nat, nullptr, out);
    eq.scheduleFn([] {}, 100 * kMs);
    eq.run();
    // Shallow idle for the first 20 us, in deep sleep for the rest.
    EXPECT_LT(proc.averageDynamicW(), 8 * cfg.profile.core_active_w * 0.05);
}

TEST(Processor, WakePenaltyDelaysFirstPacket)
{
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    auto cfg = natConfig(funcs::Platform::HostSkylake, 1);
    cfg.sleep = true;
    Processor proc(eq, cfg, *nat, nullptr, out);

    // Let the core fall deeply asleep, deliver one packet, then a
    // second one 10 us after the first — before the core can sleep
    // again (it sleeps after 20 us idle; waking costs 5 us).
    eq.scheduleFn(
        [&] { proc.input().accept(mtuPacket(eq.now())); }, 10 * kMs);
    eq.scheduleFn(
        [&] { proc.input().accept(mtuPacket(eq.now())); },
        10 * kMs + 10 * kUs);
    eq.run();
    ASSERT_EQ(out.count, 2u);
    EXPECT_GE(out.latencies[0], 5 * kUs)
        << "the wake-up penalty must show up in latency";
    EXPECT_LT(out.latencies[1], out.latencies[0] - 4 * kUs)
        << "an awake core must not pay the penalty";
}

TEST(Accelerator, PipelineRateAndLatency)
{
    // BF-2 REM accel: 47 Gbps pipeline, 20 us fixed latency.
    EventQueue eq;
    Collector out(eq);
    auto rem = funcs::makeFunction(funcs::FunctionId::Rem);
    Processor::Config cfg;
    cfg.platform = funcs::Platform::SnicBf2;
    cfg.profile = funcs::profile(funcs::Platform::SnicBf2,
                                 funcs::FunctionId::Rem);
    cfg.service_mac = net::MacAddr::fromUint(0x5E);
    cfg.service_ip = net::Ipv4Addr(10, 0, 0, 2);
    Processor proc(eq, cfg, *rem, nullptr, out);
    EXPECT_TRUE(proc.usesAccel());

    // Single packet: latency = serialization + pipeline latency.
    proc.input().accept(mtuPacket(0));
    eq.run();
    ASSERT_EQ(out.count, 1u);
    const Tick ser = transferTicks(1500, 47.0);
    EXPECT_EQ(out.latencies[0], ser + 20 * kUs);
    EXPECT_EQ(out.last->processedBy, net::Processor::SnicAccel);
}

TEST(Accelerator, SaturatesAndDrops)
{
    EventQueue eq;
    Collector out(eq);
    auto rem = funcs::makeFunction(funcs::FunctionId::Rem);
    Processor::Config cfg;
    cfg.platform = funcs::Platform::SnicBf2;
    cfg.profile = funcs::profile(funcs::Platform::SnicBf2,
                                 funcs::FunctionId::Rem);
    cfg.service_mac = net::MacAddr::fromUint(0x5E);
    cfg.service_ip = net::Ipv4Addr(10, 0, 0, 2);
    Processor proc(eq, cfg, *rem, nullptr, out);

    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(90.0),
                              proc.input());
    const Tick dur = 50 * kMs;
    gen.start(dur);
    eq.run();
    EXPECT_NEAR(gbps(out.bytes, dur), 47.0, 1.5)
        << "REM accelerator tops out below the 50 Gbps cap";
    EXPECT_GT(proc.drops(), 0u);
}

TEST(Processor, ScalesWithCoreCount)
{
    // 4 cores deliver half the 8-core rate.
    EventQueue eq;
    Collector out(eq);
    auto nat = funcs::makeFunction(funcs::FunctionId::Nat);
    Processor proc(eq, natConfig(funcs::Platform::SnicBf2, 4), *nat,
                   nullptr, out);
    net::TrafficGenerator::Config gc;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(80.0),
                              proc.input());
    const Tick dur = 50 * kMs;
    gen.start(dur);
    eq.run();
    EXPECT_NEAR(gbps(out.bytes, dur), 41.0 / 2, 1.0);
}

TEST(Processor, StatefulFunctionPaysCoherence)
{
    // The same Count workload processed with and without a coherence
    // domain: the coherent run must be slower (state access latency).
    auto run = [](coherence::CoherenceDomain *domain) {
        EventQueue eq;
        Collector out(eq);
        auto count = funcs::makeFunction(funcs::FunctionId::Count);
        Processor proc(eq,
                       natConfig(funcs::Platform::SnicBf2, 1), *count,
                       domain, out);
        Rng rng(3);
        for (int i = 0; i < 50; ++i) {
            auto pkt = mtuPacket(0);
            count->makeRequest(*pkt, rng);
            proc.input().accept(std::move(pkt));
        }
        eq.run();
        return eq.now();
    };
    coherence::CoherenceDomain domain;
    EXPECT_GT(run(&domain), run(nullptr));
}
