/**
 * @file
 * Fleet resilience layer: consistent-hash ring properties, retry
 * backoff, health-check hysteresis flap bounds, backend admission
 * control and crash semantics, FleetConfig validation, and the
 * end-to-end drills the issue's acceptance gates name — a crash
 * drill whose attempt ledger reconciles exactly, and a retry storm
 * where shedding holds the tail while the no-shed ablation collapses.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "obs/span.hh"
#include "net/client.hh"
#include "net/packet.hh"
#include "net/traffic.hh"

using namespace halsim;
using namespace halsim::fleet;

namespace {

class NullSink : public net::PacketSink
{
  public:
    void accept(net::PacketPtr) override { ++received; }
    std::uint64_t received = 0;
};

net::PacketPtr
testPacket(std::size_t frame_bytes = net::kMtuFrameBytes)
{
    static const std::vector<std::uint8_t> payload(32, 0xAB);
    return net::makeUdpPacket(net::MacAddr::fromUint(0x020000000001),
                              net::MacAddr::fromUint(0x020000000002),
                              net::Ipv4Addr(10, 0, 9, 1),
                              net::Ipv4Addr(10, 0, 9, 2), 40000, 9000,
                              payload, frame_bytes);
}

core::RunResult
runFleet(FleetConfig cfg, double rate_gbps, Tick warmup, Tick measure)
{
    EventQueue eq;
    FleetSystem sys(eq, std::move(cfg));
    return sys.run(std::make_unique<net::ConstantRate>(rate_gbps),
                   warmup, measure);
}

} // namespace

// --- consistent-hash ring --------------------------------------------

TEST(HashRing, DeterministicAndCoversAllBackends)
{
    const unsigned n = 8;
    HashRing a(n, 64);
    HashRing b(n, 64);
    ASSERT_EQ(a.points(), std::size_t{8 * 64});

    std::vector<std::uint64_t> hits(n, 0);
    for (std::uint64_t k = 0; k < 10000; ++k) {
        const auto oa = a.lookup(mix64(k));
        const auto ob = b.lookup(mix64(k));
        ASSERT_TRUE(oa.has_value());
        EXPECT_EQ(oa, ob); // pure function of (backends, vnodes, key)
        ++hits[*oa];
    }
    for (unsigned i = 0; i < n; ++i)
        EXPECT_GT(hits[i], 0u) << "backend " << i << " owns no keys";
}

TEST(HashRing, FailureOnlyRemapsTheDeadBackendsKeys)
{
    const unsigned n = 8, dead = 3;
    HashRing ring(n, 64);

    std::vector<unsigned> before(10000);
    std::vector<unsigned> expectedSuccessor(10000);
    for (std::uint64_t k = 0; k < before.size(); ++k) {
        const std::uint64_t key = mix64(k);
        before[k] = *ring.lookup(key);
        expectedSuccessor[k] = *ring.successor(key, dead);
    }

    ring.setUp(dead, false);
    EXPECT_EQ(ring.upCount(), n - 1);
    for (std::uint64_t k = 0; k < before.size(); ++k) {
        const auto now = ring.lookup(mix64(k));
        ASSERT_TRUE(now.has_value());
        if (before[k] != dead) {
            // Minimal disruption: surviving backends keep their keys.
            EXPECT_EQ(*now, before[k]);
        } else {
            // The dead backend's keys land exactly on the successor
            // the hash would have chosen had it never existed.
            EXPECT_EQ(*now, expectedSuccessor[k]);
        }
    }

    ring.setUp(dead, true);
    for (std::uint64_t k = 0; k < before.size(); ++k)
        EXPECT_EQ(*ring.lookup(mix64(k)), before[k]);
}

TEST(HashRing, AllDownYieldsNoOwner)
{
    HashRing ring(3, 16);
    for (unsigned i = 0; i < 3; ++i)
        ring.setUp(i, false);
    EXPECT_EQ(ring.upCount(), 0u);
    EXPECT_EQ(ring.lookup(12345), std::nullopt);

    ring.setUp(1, true);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(ring.lookup(mix64(k)), std::optional<unsigned>{1});
}

// --- retry policy -----------------------------------------------------

TEST(RetryPolicy, BackoffDoublesThenSaturates)
{
    net::RetryPolicy p; // 500 us base, 8 ms cap
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.backoffFor(0), 500 * kUs);
    EXPECT_EQ(p.backoffFor(1), 1 * kMs);
    EXPECT_EQ(p.backoffFor(2), 2 * kMs);
    EXPECT_EQ(p.backoffFor(3), 4 * kMs);
    EXPECT_EQ(p.backoffFor(4), 8 * kMs);
    EXPECT_EQ(p.backoffFor(5), 8 * kMs); // capped
    EXPECT_EQ(p.backoffFor(60), 8 * kMs);

    p.timeout = 0;
    EXPECT_FALSE(p.enabled());
}

// --- health-check hysteresis -----------------------------------------

namespace {

Backend::Config
lightBackend()
{
    Backend::Config bc;
    bc.cores = 1;
    bc.core_rate_gbps = 10.0;
    return bc;
}

} // namespace

TEST(HealthChecker, FlapShorterThanFallIsAbsorbed)
{
    EventQueue eq;
    NullSink out;
    Backend b(eq, lightBackend(), out);
    HealthChecker h(eq, {1 * kMs, 3, 2}, {&b});

    // Stall for 2 probe epochs out of every 4: consecutive failures
    // never reach fall=3, so the verdict must never change.
    for (Tick t = 0; t < 40 * kMs; t += 4 * kMs) {
        eq.scheduleFn([&b] { b.setStalled(true); }, t + 500 * kUs);
        eq.scheduleFn([&b] { b.setStalled(false); }, t + 2500 * kUs);
    }

    h.start(40 * kMs);
    eq.runUntil(41 * kMs);

    EXPECT_GT(h.probesFailed(), 0u);
    EXPECT_EQ(h.downTransitions(), 0u);
    EXPECT_EQ(h.upTransitions(), 0u);
    EXPECT_TRUE(h.healthy(0));
}

TEST(HealthChecker, TransitionRateBoundedByHysteresis)
{
    EventQueue eq;
    NullSink out;
    Backend b(eq, lightBackend(), out);
    const HealthChecker::Config hc{1 * kMs, 3, 2};
    HealthChecker h(eq, hc, {&b});

    // Worst-case flap for fall=3/rise=2: down exactly long enough to
    // trip the fall threshold, up exactly long enough to rise. Each
    // 5 ms cycle costs one down + one up transition — the maximum the
    // hysteresis permits.
    const Tick horizon = 50 * kMs;
    for (Tick t = 0; t < horizon; t += 5 * kMs) {
        eq.scheduleFn([&b] { b.setStalled(true); }, t + 500 * kUs);
        eq.scheduleFn([&b] { b.setStalled(false); }, t + 3500 * kUs);
    }

    h.start(horizon);
    eq.runUntil(horizon + 1 * kMs);

    const std::uint64_t probes = h.probesSent();
    ASSERT_EQ(probes, 50u);
    // The documented bound: at most 1 transition (each way) per
    // (fall + rise) probe epochs.
    const std::uint64_t bound = probes / (hc.fall + hc.rise);
    EXPECT_EQ(h.downTransitions(), bound);
    EXPECT_EQ(h.upTransitions(), bound);
    EXPECT_LE(h.downTransitions() + h.upTransitions(), 2 * bound);
}

// --- backend admission control and crash semantics -------------------

TEST(Backend, ShedsAtWatermarkInsteadOfFillingRing)
{
    EventQueue eq;
    NullSink out;
    Backend::Config bc = lightBackend();
    bc.ring_capacity = 128;
    bc.shed_watermark = 16;
    Backend b(eq, bc, out);

    for (int i = 0; i < 200; ++i)
        b.accept(testPacket());

    // One request went straight to the single core; the ring then
    // filled to the watermark; everything else was shed early.
    EXPECT_EQ(b.occupancy(), 16u);
    EXPECT_EQ(b.sheds(), 200u - 17u);
    EXPECT_EQ(b.ringDrops(), 0u);

    eq.run();
    EXPECT_EQ(b.served(), 17u);
    EXPECT_EQ(out.received, 17u);
    EXPECT_EQ(b.losses(), b.sheds());
}

TEST(Backend, ZeroWatermarkDisablesSheddingAndTailDrops)
{
    EventQueue eq;
    NullSink out;
    Backend::Config bc = lightBackend();
    bc.ring_capacity = 32;
    bc.shed_watermark = 0; // the no-shedding ablation
    Backend b(eq, bc, out);

    for (int i = 0; i < 100; ++i)
        b.accept(testPacket());

    EXPECT_EQ(b.sheds(), 0u);
    EXPECT_EQ(b.occupancy(), 32u);
    EXPECT_EQ(b.ringDrops(), 100u - 33u);
}

TEST(Backend, CrashLosesInFlightAndBlackholesUntilRestore)
{
    EventQueue eq;
    NullSink out;
    Backend b(eq, lightBackend(), out);

    for (int i = 0; i < 10; ++i)
        b.accept(testPacket());
    EXPECT_EQ(b.occupancy(), 9u); // one in service on the single core

    b.crash();
    EXPECT_EQ(b.crashLost(), 10u); // queued + in-service all lost
    EXPECT_EQ(b.occupancy(), 0u);
    EXPECT_FALSE(b.probeOk());
    EXPECT_NEAR(b.currentW(), 0.0, 1e-12);

    b.accept(testPacket()); // arrivals while down blackhole
    EXPECT_EQ(b.crashLost(), 11u);

    // Completions scheduled before the crash land in a dead world:
    // the request was already written off, so nothing resurrects.
    eq.run();
    EXPECT_EQ(b.served(), 0u);
    EXPECT_EQ(out.received, 0u);

    b.restore();
    EXPECT_TRUE(b.probeOk());
    b.accept(testPacket());
    eq.run();
    EXPECT_EQ(b.served(), 1u);
    EXPECT_EQ(out.received, 1u);
}

TEST(Backend, StallHoldsQueueAndDrawsFullPower)
{
    EventQueue eq;
    NullSink out;
    Backend::Config bc = lightBackend();
    bc.cores = 2;
    Backend b(eq, bc, out);

    b.setStalled(true);
    for (int i = 0; i < 5; ++i)
        b.accept(testPacket());
    EXPECT_FALSE(b.probeOk());
    EXPECT_EQ(b.occupancy(), 5u); // nothing dispatched while hung
    EXPECT_NEAR(b.currentW(), bc.cores * bc.core_active_w, 1e-12);

    eq.run();
    EXPECT_EQ(b.served(), 0u);

    b.setStalled(false);
    eq.run();
    EXPECT_EQ(b.served(), 5u); // held requests drain after resume
    EXPECT_EQ(b.crashLost(), 0u);
}

// --- configuration validation ----------------------------------------

TEST(FleetConfig, ValidReportsNoErrors)
{
    FleetConfig cfg;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(FleetConfig, ValidateNamesEveryOffendingField)
{
    FleetConfig cfg;
    cfg.backends = 0;
    cfg.frontend.vnodes = 0;
    cfg.backend.ring_capacity = 0;
    cfg.health.epoch = 0;
    cfg.client.flows = 0;
    const auto errors = cfg.validate();
    ASSERT_EQ(errors.size(), 5u);
    auto contains = [&errors](const std::string &needle) {
        for (const auto &e : errors)
            if (e.find(needle) != std::string::npos)
                return true;
        return false;
    };
    EXPECT_TRUE(contains("backends"));
    EXPECT_TRUE(contains("frontend.vnodes"));
    EXPECT_TRUE(contains("backend.ring_capacity"));
    EXPECT_TRUE(contains("health.epoch"));
    EXPECT_TRUE(contains("client.flows"));
}

TEST(FleetConfig, RetryBudgetRequiresTimeout)
{
    FleetConfig cfg;
    cfg.client.retry.timeout = 0;
    cfg.client.retry.max_retries = 3;
    const auto errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("retry budget"), std::string::npos);

    cfg.client.retry.max_retries = 0; // retry machinery off: fine
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(FleetConfig, RejectsWatermarkAboveRingCapacity)
{
    FleetConfig cfg;
    cfg.backend.ring_capacity = 64;
    cfg.backend.shed_watermark = 65;
    const auto errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("shed_watermark"), std::string::npos);

    cfg.backend.shed_watermark = 64;
    EXPECT_TRUE(cfg.validate().empty());
}

TEST(FleetConfig, ConstructorThrowsJoiningAllErrors)
{
    EventQueue eq;
    FleetConfig cfg;
    cfg.backends = 200;
    cfg.slo.epoch = 0;
    try {
        FleetSystem sys(eq, cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("FleetConfig:"), std::string::npos) << what;
        EXPECT_NE(what.find("backends"), std::string::npos) << what;
        EXPECT_NE(what.find("slo.epoch"), std::string::npos) << what;
    }
}

// --- end-to-end drills ------------------------------------------------

namespace {

FleetConfig
drillConfig()
{
    FleetConfig cfg;
    cfg.backends = 4;
    return cfg;
}

} // namespace

TEST(FleetDrill, HealthyRunBalancesAndAccountsEnergy)
{
    auto cfg = drillConfig();
    const auto r = runFleet(cfg, 8.0, 10 * kMs, 40 * kMs);

    EXPECT_GT(r.responses, 0u);
    EXPECT_EQ(r.fleet_backends, 4u);
    EXPECT_EQ(r.fleet_requests_failed, 0u);
    EXPECT_EQ(r.fleet_failovers, 0u);
    EXPECT_EQ(r.drops, 0u);
    EXPECT_NEAR(r.delivered_gbps, 8.0, 1.0);

    // Consistent hashing splits load unevenly but never starves a
    // backend at this flow population.
    EXPECT_GT(r.fleet_backend_served_min, 0u);
    EXPECT_GE(r.fleet_backend_served_max, r.fleet_backend_served_min);

    // Energy components must sum exactly: per-backend dynamic
    // accounts + the static baseline + the frontend's own draw.
    EXPECT_GT(r.energy_fleet_j, 0.0);
    EXPECT_NEAR(r.energy_fleet_j + r.energy_static_j + r.energy_extra_j,
                r.energy_total_j, 1e-9 * r.energy_total_j);
    EXPECT_NEAR(r.energy_static_j,
                4 * 194.0 * 0.040, 1e-6); // 4 backends, 40 ms window
}

TEST(FleetDrill, CrashDrillLedgerReconcilesExactly)
{
    auto cfg = drillConfig();
    cfg.client.retry.max_retries = 5;
    cfg.faults.backendCrash(1, 15 * kMs); // permanent, mid-window
    // warmup 0 so the window opens with zero requests in flight: the
    // attempt ledger then closes exactly after the drain.
    const auto r = runFleet(cfg, 8.0, 0, 40 * kMs);

    ASSERT_GT(r.faults_injected, 0u);
    EXPECT_EQ(r.sent,
              r.responses + r.fleet_duplicates + r.drops)
        << "sends must reconcile: " << r.sent << " sent vs "
        << r.responses << " + " << r.fleet_duplicates << " dup + "
        << r.drops << " lost";

    // The retry budget outlives the detection window (fall=3 epochs
    // of 2 ms), so no request is abandoned.
    EXPECT_EQ(r.fleet_requests_failed, 0u);
    EXPECT_GT(r.fleet_retries, 0u);
    EXPECT_GT(r.fleet_timeouts, 0u);
    EXPECT_EQ(r.fleet_failovers, 1u);
    EXPECT_GT(r.fleet_flows_migrated, 0u);
    EXPECT_GT(r.drops, 0u); // the crash stranded real requests
}

TEST(FleetDrill, CrashTriggersOneFlightRecorderDumpWithDownSpan)
{
    auto cfg = drillConfig();
    cfg.client.retry.max_retries = 5;
    cfg.faults.backendCrash(1, 15 * kMs); // permanent, mid-window
    cfg.obs.flightrec = true;
    cfg.obs.fr_armed = obs::frTriggerBit(obs::FrTrigger::Fault);
    // The health checker needs fall=3 probe epochs of 2 ms to declare
    // the crashed backend down; a 10 ms post-trigger window captures
    // that transition inside the dump. The window is snapshot at
    // flush time, so the ring must hold >= the full window's records
    // (~11 records/us at this rate) for the transition to survive.
    cfg.obs.fr_post = 10 * kMs;
    cfg.obs.fr_capacity = 1u << 18;

    EventQueue eq;
    FleetSystem sys(eq, std::move(cfg));
    const auto r = sys.run(std::make_unique<net::ConstantRate>(8.0), 0,
                           40 * kMs);

    // Exactly one armed trigger fired, producing exactly one dump.
    ASSERT_GT(r.faults_injected, 0u);
    EXPECT_EQ(r.fr_trigger_fault, 1u);
    EXPECT_EQ(r.fr_dumps, 1u);
    EXPECT_EQ(r.fr_trigger_slo + r.fr_trigger_shed + r.fr_trigger_gov,
              0u);

    // The captured window must hold the backend-down transition the
    // crash caused: the health checker's down mark lands ~6 ms after
    // the trigger, well inside the post window.
    ASSERT_NE(sys.obs(), nullptr);
    const obs::FlightRecorder *fr = sys.obs()->flightRecorder();
    ASSERT_NE(fr, nullptr);
    std::ostringstream text, json;
    fr->writeText(text);
    fr->writeJson(json);
    EXPECT_NE(text.str().find("health_down"), std::string::npos)
        << text.str();
    EXPECT_NE(json.str().find("\"health_down\""), std::string::npos);

    // Determinism: a second identical run reproduces the dump byte
    // for byte.
    {
        auto cfg2 = drillConfig();
        cfg2.client.retry.max_retries = 5;
        cfg2.faults.backendCrash(1, 15 * kMs);
        cfg2.obs.flightrec = true;
        cfg2.obs.fr_armed = obs::frTriggerBit(obs::FrTrigger::Fault);
        cfg2.obs.fr_post = 10 * kMs;
        cfg2.obs.fr_capacity = 1u << 18;
        EventQueue eq2;
        FleetSystem sys2(eq2, std::move(cfg2));
        const auto r2 = sys2.run(
            std::make_unique<net::ConstantRate>(8.0), 0, 40 * kMs);
        EXPECT_EQ(r2.fr_dumps, 1u);
        std::ostringstream json2;
        sys2.obs()->flightRecorder()->writeJson(json2);
        EXPECT_EQ(json.str(), json2.str());
    }
}

TEST(FleetDrill, AllBackendsDownFailsRequestsButStillReconciles)
{
    auto cfg = drillConfig();
    for (unsigned i = 0; i < 4; ++i)
        cfg.faults.backendCrash(i, 10 * kMs);
    const auto r = runFleet(cfg, 4.0, 0, 30 * kMs);

    EXPECT_EQ(r.faults_injected, 4u);
    EXPECT_EQ(r.fleet_failovers, 4u);
    EXPECT_GT(r.fleet_requests_failed, 0u); // retry budgets exhaust
    EXPECT_EQ(r.sent, r.responses + r.fleet_duplicates + r.drops);
}

TEST(FleetDrill, ProbeLossFlapsAreAbsorbedByHysteresis)
{
    auto cfg = drillConfig();
    // 10% probe loss for most of the window: individual probes fail,
    // but three consecutive losses on one backend are rare and the
    // run is seed-deterministic either way.
    cfg.faults.probeLoss(0.10, 2 * kMs, 30 * kMs);
    const auto r = runFleet(cfg, 8.0, 5 * kMs, 35 * kMs);

    EXPECT_GT(r.fleet_probes_failed, 0u);
    EXPECT_EQ(r.fleet_requests_failed, 0u);
    EXPECT_GT(r.responses, 0u);
}

TEST(FleetDrill, SheddingHoldsTailUnderRetryStorm)
{
    // 4 weak backends (2 cores x 2 Gbps) give ~16 Gbps of fleet
    // capacity; 40 Gbps offered plus retries is a sustained storm.
    auto storm = drillConfig();
    storm.backend.cores = 2;
    storm.backend.core_rate_gbps = 2.0;
    storm.backend.ring_capacity = 4096;
    storm.client.retry.timeout = 1 * kMs;
    storm.client.retry.backoff_base = 250 * kUs;
    storm.client.retry.backoff_cap = 2 * kMs;

    auto shed = storm;
    shed.backend.shed_watermark = 64;
    auto noshed = storm; // watermark 0: requests queue to the brim

    const auto rs = runFleet(shed, 40.0, 10 * kMs, 30 * kMs);
    const auto rn = runFleet(noshed, 40.0, 10 * kMs, 30 * kMs);

    EXPECT_GT(rs.fleet_sheds, 0u);
    EXPECT_EQ(rn.fleet_sheds, 0u);

    // Admission control bounds the ring at the watermark, so an
    // *admitted* attempt answers inside the timeout (64 requests at
    // ~4 us apiece): the fleet keeps serving near capacity and the
    // completed-request tail is the bounded shed-retry ladder. The
    // ablation queues to the brim instead — ~16 ms of ring delay, so
    // every response outlives the whole retry budget: goodput
    // collapses, requests fail wholesale, and the late responses all
    // arrive as suppressed duplicates.
    EXPECT_GT(rs.delivered_gbps, 8.0);
    EXPECT_LT(rn.delivered_gbps, 1.0);
    EXPECT_GT(rs.responses, 100 * (rn.responses + 1));
    EXPECT_GT(rs.p99_us, 0.0);
    EXPECT_LT(rs.p99_us, 20000.0);
    EXPECT_GT(rn.fleet_requests_failed, rs.fleet_requests_failed);
    EXPECT_GT(rn.fleet_timeouts, rs.fleet_timeouts);
    EXPECT_GT(rn.fleet_duplicates, rs.fleet_duplicates);
}

TEST(FleetSweep, TracePathWritesRequestSpansAndFlows)
{
    // --trace is the one trace flag for fleet sweeps too: it forces
    // the span ring on and writes it, root request spans and the flow
    // events that link them to their children included.
    std::vector<FleetSweepPoint> points(1);
    points[0].cfg = drillConfig();
    points[0].rate_gbps = 8.0;
    points[0].warmup = 2 * kMs;
    points[0].measure = 10 * kMs;
    points[0].label = "traced";

    core::SweepOptions opts;
    opts.trace_path = ::testing::TempDir() + "fleet_sweep_trace.json";
    std::remove(opts.trace_path.c_str());
    const auto results = runFleetSweep(points, opts);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].trace_spans, 0u);

    std::ifstream in(opts.trace_path, std::ios::binary);
    ASSERT_TRUE(in.good()) << opts.trace_path;
    std::ostringstream doc;
    doc << in.rdbuf();
    const std::string s = doc.str();
    EXPECT_EQ(s.find("{\"traceEvents\":["), 0u);
    EXPECT_NE(s.find("{\"name\":\"request\",\"cat\":\"span\",\"ph\":\"b\""),
              std::string::npos);
    EXPECT_NE(s.find("\"cat\":\"flow\",\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(s.find("\"args\":{\"name\":\"client\"}"), std::string::npos);
}
