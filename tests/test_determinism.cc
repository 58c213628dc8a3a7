/**
 * @file
 * Bit-exact determinism of the simulator under the hot-path
 * machinery: the same seed must yield byte-identical RunResults
 * (every field, including latency quantiles and fault counters)
 * regardless of
 *
 *  - packet-buffer pooling on vs. off (a pure recycling optimisation
 *    must be observationally invisible),
 *  - sweep worker count 1 vs. N (each point owns a private
 *    EventQueue, so parallelism must not perturb anything), and
 *  - observability on vs. off (stats probes and the trace ring
 *    are read-only observers; §DESIGN.md 10's neutrality contract).
 *
 * The obs artifacts themselves (stats trees, trace text) must also be
 * byte-identical across sweep thread counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/server.hh"
#include "core/sweep.hh"
#include "fleet/fleet.hh"
#include "net/packet_pool.hh"
#include "net/traffic.hh"
#include "obs/obs.hh"
#include "sim/event_queue.hh"

using namespace halsim;
using namespace halsim::core;

namespace {

/**
 * The serialized RunResult: every field, in the one format artifacts
 * use. jsonNumber() is shortest-round-trip and prints -0 distinctly,
 * so equal strings mean bit-equal finite doubles, and a new field is
 * covered without editing this file.
 */
std::string
json(const RunResult &r)
{
    std::ostringstream os;
    r.toJson(os);
    return os.str();
}

/** A HAL point with a transient fault so that every fault/watchdog
 *  counter is actually exercised, not trivially zero. */
ServerConfig
faultedHalConfig()
{
    ServerConfig cfg;
    cfg.mode = Mode::Hal;
    cfg.function = funcs::FunctionId::Nat;
    cfg.faults.processorFailure(fault::FaultTarget::Host, 15 * kMs,
                                8 * kMs);
    // Arm the SLO monitor so its epoch/violation counters are part of
    // every identity check below, not trivially zero.
    cfg.slo.target_p99_us = 200.0;
    return cfg;
}

RunResult
runOnce(const ServerConfig &cfg, double rate_gbps, bool pooling)
{
    net::PacketPool::local().setEnabled(pooling);
    net::PacketPool::local().clear();
    EventQueue eq;
    ServerSystem sys(eq, cfg);
    RunResult r =
        sys.run(std::make_unique<net::ConstantRate>(rate_gbps), 5 * kMs,
                30 * kMs);
    // A release-mode schedule-into-past clamp is a silent causality
    // bug (debug builds assert); every run in this suite must be
    // clamp-free.
    EXPECT_EQ(r.past_clamps, 0u);
    net::PacketPool::local().setEnabled(true);
    return r;
}

} // namespace

TEST(Determinism, PoolingOnVsOffIdentical)
{
    const ServerConfig cfg = faultedHalConfig();
    const RunResult pooled = runOnce(cfg, 60.0, true);
    const RunResult bare = runOnce(cfg, 60.0, false);
    // The fault plan must have fired for this test to mean anything.
    ASSERT_GT(pooled.faults_injected, 0u);
    ASSERT_GT(pooled.failovers, 0u);
    EXPECT_EQ(json(pooled), json(bare));
}

TEST(Determinism, RepeatedRunsIdentical)
{
    const ServerConfig cfg = faultedHalConfig();
    const RunResult a = runOnce(cfg, 60.0, true);
    const RunResult b = runOnce(cfg, 60.0, true);
    EXPECT_EQ(json(a), json(b));
}

TEST(Determinism, ObsOnVsOffIdentical)
{
    ServerConfig off = faultedHalConfig();
    ServerConfig on = faultedHalConfig();
    on.obs.stats = true;
    on.obs.trace = true;
    on.obs.trace_sample_every = 8;

    const RunResult r_off = runOnce(off, 60.0, true);
    const RunResult r_on = runOnce(on, 60.0, true);
    ASSERT_GT(r_on.faults_injected, 0u);
    // Energy and SLO accounting run whether or not obs is enabled, so
    // they must agree too (and actually measure something).
    ASSERT_GT(r_on.energy_total_j, 0.0);
    ASSERT_GT(r_on.slo_epochs, 0u);
    EXPECT_EQ(json(r_off), json(r_on));
}

TEST(Determinism, ObsArtifactsIdenticalAcrossSweepThreads)
{
    std::vector<SweepPoint> points;
    for (double rate : {40.0, 80.0}) {
        SweepPoint p;
        p.cfg = faultedHalConfig();
        p.rate_gbps = rate;
        p.warmup = 5 * kMs;
        p.measure = 20 * kMs;
        p.label = "hal" + std::to_string(static_cast<int>(rate));
        points.push_back(std::move(p));
    }
    {
        SweepPoint p;
        p.cfg = ServerConfig::slbBaseline();
        p.rate_gbps = 60.0;
        p.warmup = 5 * kMs;
        p.measure = 20 * kMs;
        p.label = "slb";
        points.push_back(std::move(p));
    }

    auto artifacts = [&points](unsigned threads) {
        const std::string base = ::testing::TempDir() + "det_obs_t" +
                                 std::to_string(threads);
        SweepOptions opts;
        opts.threads = threads;
        opts.json_path = base + ".json";
        opts.stats_path = base + "_stats.json";
        opts.trace_path = base + "_trace.json";
        runSweep(points, opts);
        auto slurp = [](const std::string &path) {
            std::ifstream in(path, std::ios::binary);
            std::ostringstream os;
            os << in.rdbuf();
            return os.str();
        };
        return std::vector<std::string>{slurp(opts.json_path),
                                        slurp(opts.stats_path),
                                        slurp(opts.trace_path)};
    };

    const auto serial = artifacts(1);
    const auto parallel = artifacts(4);
    ASSERT_FALSE(serial[0].empty());
    ASSERT_FALSE(serial[1].empty());
    ASSERT_FALSE(serial[2].empty());
    // The results header records the worker count used, which is the
    // one field that legitimately differs; everything from the point
    // rows onward must match byte for byte.
    const auto fromPoints = [](const std::string &s) {
        const std::size_t pos = s.find("\"points\"");
        EXPECT_NE(pos, std::string::npos);
        return s.substr(pos == std::string::npos ? 0 : pos);
    };
    EXPECT_EQ(fromPoints(serial[0]), fromPoints(parallel[0]));
    EXPECT_EQ(serial[1], parallel[1]);   // stats trees
    EXPECT_EQ(serial[2], parallel[2]);   // Chrome trace
}

TEST(Determinism, FleetSweepThreads1VsNIdentical)
{
    // Fleet runs with faults armed must be bit-identical across sweep
    // worker counts, artifacts included — same contract as the
    // single-server sweep.
    std::vector<fleet::FleetSweepPoint> points;
    for (double rate : {20.0, 45.0}) {
        fleet::FleetSweepPoint p;
        p.cfg.backends = 3;
        p.cfg.slo.target_p99_us = 500.0;
        p.cfg.faults.backendCrash(1, 8 * kMs); // permanent, mid-window
        p.cfg.faults.probeLoss(0.2, 2 * kMs, 4 * kMs);
        p.rate_gbps = rate;
        p.warmup = 5 * kMs;
        p.measure = 20 * kMs;
        p.label = "fleet" + std::to_string(static_cast<int>(rate));
        points.push_back(std::move(p));
    }

    auto artifacts = [&points](unsigned threads) {
        const std::string base = ::testing::TempDir() + "det_fleet_t" +
                                 std::to_string(threads);
        SweepOptions opts;
        opts.threads = threads;
        opts.json_path = base + ".json";
        opts.stats_path = base + "_stats.json";
        const auto results = fleet::runFleetSweep(points, opts);
        auto slurp = [](const std::string &path) {
            std::ifstream in(path, std::ios::binary);
            std::ostringstream os;
            os << in.rdbuf();
            return os.str();
        };
        return std::make_pair(
            results, std::vector<std::string>{slurp(opts.json_path),
                                              slurp(opts.stats_path)});
    };

    const auto [rs, as] = artifacts(1);
    const auto [rp, ap] = artifacts(4);
    ASSERT_EQ(rs.size(), points.size());
    // The crash must actually have fired and been failed over.
    ASSERT_GT(rs[0].faults_injected, 0u);
    ASSERT_GT(rs[0].fleet_failovers, 0u);
    for (std::size_t i = 0; i < rs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(json(rs[i]), json(rp[i]));
    }
    ASSERT_FALSE(as[0].empty());
    ASSERT_FALSE(as[1].empty());
    const auto fromPoints = [](const std::string &s) {
        const std::size_t pos = s.find("\"points\"");
        EXPECT_NE(pos, std::string::npos);
        return s.substr(pos == std::string::npos ? 0 : pos);
    };
    EXPECT_EQ(fromPoints(as[0]), fromPoints(ap[0]));
    EXPECT_EQ(as[1], ap[1]); // stats trees
}

TEST(Determinism, SpanArtifactsIdenticalAcrossSweepThreads)
{
    // Span + flight-recorder artifacts from a faulted fleet sweep must
    // be byte-identical across sweep worker counts: each point's rings
    // live inside its own FleetSystem, and the reports serialize in
    // input order.
    std::vector<fleet::FleetSweepPoint> points;
    for (double rate : {20.0, 45.0}) {
        fleet::FleetSweepPoint p;
        p.cfg.backends = 3;
        p.cfg.slo.target_p99_us = 500.0;
        p.cfg.faults.backendCrash(1, 8 * kMs); // permanent, mid-window
        p.rate_gbps = rate;
        p.warmup = 5 * kMs;
        p.measure = 20 * kMs;
        p.label = "span" + std::to_string(static_cast<int>(rate));
        points.push_back(std::move(p));
    }

    auto artifacts = [&points](unsigned threads) {
        const std::string base = ::testing::TempDir() + "det_span_t" +
                                 std::to_string(threads);
        SweepOptions opts;
        opts.threads = threads;
        opts.trace_path = base + "_trace.json";
        opts.flightrec_path = base + "_fr.json";
        const auto results = fleet::runFleetSweep(points, opts);
        auto slurp = [](const std::string &path) {
            std::ifstream in(path, std::ios::binary);
            std::ostringstream os;
            os << in.rdbuf();
            return os.str();
        };
        return std::make_pair(
            results,
            std::vector<std::string>{slurp(opts.trace_path),
                                     slurp(opts.flightrec_path)});
    };

    const auto [rs, as] = artifacts(1);
    const auto [rp, ap] = artifacts(4);
    ASSERT_EQ(rs.size(), points.size());
    // The artifact flags force spans + flight recorder on, the crash
    // must have fired a trigger, and spans must have been recorded.
    ASSERT_GT(rs[0].trace_spans, 0u);
    ASSERT_GT(rs[0].fr_trigger_fault, 0u);
    for (std::size_t i = 0; i < rs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(json(rs[i]), json(rp[i]));
    }
    ASSERT_FALSE(as[0].empty());
    ASSERT_FALSE(as[1].empty());
    EXPECT_EQ(as[0], ap[0]); // span trace
    EXPECT_EQ(as[1], ap[1]); // flight-recorder dumps
}

TEST(Determinism, GovernorSweepThreads1VsNIdentical)
{
    // Governor-armed points: the epoch tick, flow-group migrations,
    // and park/unpark decisions all live on the point's own event
    // queue, so sweep-level parallelism must stay bit-invisible.
    std::vector<SweepPoint> points;
    for (double rate : {4.0, 30.0, 70.0}) {
        SweepPoint p;
        p.cfg.mode = Mode::Hal;
        p.cfg.function = funcs::FunctionId::Nat;
        p.cfg.power.governor.enabled = true;
        p.rate_gbps = rate;
        p.warmup = 5 * kMs;
        p.measure = 30 * kMs;
        points.push_back(std::move(p));
    }

    SweepOptions serial, parallel;
    serial.threads = 1;
    parallel.threads = 4;
    const auto rs = runSweep(points, serial);
    const auto rp = runSweep(points, parallel);
    ASSERT_EQ(rs.size(), points.size());
    // The low-rate point must actually exercise the consolidation
    // machinery for this identity to mean anything.
    ASSERT_GT(rs[0].gov_epochs, 0u);
    ASSERT_GT(rs[0].gov_parks, 0u);
    for (std::size_t i = 0; i < rs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(json(rs[i]), json(rp[i]));
    }
}

TEST(Determinism, SweepThreads1VsNIdentical)
{
    std::vector<SweepPoint> points;
    for (double rate : {20.0, 60.0, 90.0}) {
        SweepPoint p;
        p.cfg = faultedHalConfig();
        p.rate_gbps = rate;
        p.warmup = 5 * kMs;
        p.measure = 30 * kMs;
        points.push_back(std::move(p));
    }
    {
        SweepPoint p;
        p.cfg.mode = Mode::SnicOnly;
        p.cfg.function = funcs::FunctionId::Rem;
        p.rate_gbps = 30.0;
        p.warmup = 5 * kMs;
        p.measure = 30 * kMs;
        points.push_back(std::move(p));
    }
    // The two kinds of Table V run: a datacenter-trace point and a
    // coherent HAL pipeline whose stateful stage feeds an accelerator.
    {
        SweepPoint p;
        p.cfg.mode = Mode::Hal;
        p.cfg.function = funcs::FunctionId::Nat;
        p.trace = net::TraceKind::Hadoop;
        p.warmup = 5 * kMs;
        p.measure = 30 * kMs;
        points.push_back(std::move(p));
    }
    {
        SweepPoint p;
        p.cfg.mode = Mode::Hal;
        p.cfg.function = funcs::FunctionId::Count;
        p.cfg.pipeline_second = funcs::FunctionId::Rem;
        p.rate_gbps = 60.0;
        p.warmup = 2 * kMs;
        p.measure = 10 * kMs;
        points.push_back(std::move(p));
    }

    SweepOptions serial, parallel;
    serial.threads = 1;
    parallel.threads = 4;
    const auto rs = runSweep(points, serial);
    const auto rp = runSweep(points, parallel);
    ASSERT_EQ(rs.size(), points.size());
    ASSERT_EQ(rp.size(), points.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(json(rs[i]), json(rp[i]));
    }
}
