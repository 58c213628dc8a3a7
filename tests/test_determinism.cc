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

#include <bit>
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

/** Exact bit equality for doubles (EXPECT_EQ would accept -0 == 0). */
void
expectBitEqual(double a, double b, const char *field)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b))
        << field << ": " << a << " vs " << b;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    expectBitEqual(a.offered_gbps, b.offered_gbps, "offered_gbps");
    expectBitEqual(a.delivered_gbps, b.delivered_gbps, "delivered_gbps");
    expectBitEqual(a.max_window_gbps, b.max_window_gbps,
                   "max_window_gbps");
    expectBitEqual(a.p99_us, b.p99_us, "p99_us");
    expectBitEqual(a.mean_us, b.mean_us, "mean_us");
    expectBitEqual(a.system_power_w, b.system_power_w, "system_power_w");
    expectBitEqual(a.dynamic_power_w, b.dynamic_power_w,
                   "dynamic_power_w");
    expectBitEqual(a.energy_eff, b.energy_eff, "energy_eff");
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.responses, b.responses);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.in_flight_at_window_end, b.in_flight_at_window_end);
    EXPECT_EQ(a.snic_frames, b.snic_frames);
    EXPECT_EQ(a.host_frames, b.host_frames);
    EXPECT_EQ(a.slb_kept, b.slb_kept);
    EXPECT_EQ(a.slb_forwarded, b.slb_forwarded);
    expectBitEqual(a.final_fwd_th_gbps, b.final_fwd_th_gbps,
                   "final_fwd_th_gbps");
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.faults_reverted, b.faults_reverted);
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.recoveries, b.recoveries);
    expectBitEqual(a.degraded_us, b.degraded_us, "degraded_us");
    expectBitEqual(a.time_to_recover_us, b.time_to_recover_us,
                   "time_to_recover_us");
    EXPECT_EQ(a.failover_drops, b.failover_drops);
    EXPECT_EQ(a.ctrl_updates_dropped, b.ctrl_updates_dropped);
    expectBitEqual(a.energy_snic_cpu_j, b.energy_snic_cpu_j,
                   "energy_snic_cpu_j");
    expectBitEqual(a.energy_snic_accel_j, b.energy_snic_accel_j,
                   "energy_snic_accel_j");
    expectBitEqual(a.energy_host_cpu_j, b.energy_host_cpu_j,
                   "energy_host_cpu_j");
    expectBitEqual(a.energy_host_accel_j, b.energy_host_accel_j,
                   "energy_host_accel_j");
    expectBitEqual(a.energy_extra_j, b.energy_extra_j, "energy_extra_j");
    expectBitEqual(a.energy_static_j, b.energy_static_j,
                   "energy_static_j");
    expectBitEqual(a.energy_total_j, b.energy_total_j, "energy_total_j");
    expectBitEqual(a.j_per_request, b.j_per_request, "j_per_request");
    expectBitEqual(a.j_per_gb, b.j_per_gb, "j_per_gb");
    expectBitEqual(a.slo_target_p99_us, b.slo_target_p99_us,
                   "slo_target_p99_us");
    expectBitEqual(a.slo_worst_p99_us, b.slo_worst_p99_us,
                   "slo_worst_p99_us");
    EXPECT_EQ(a.slo_epochs, b.slo_epochs);
    EXPECT_EQ(a.slo_violation_epochs, b.slo_violation_epochs);
    EXPECT_EQ(a.fleet_backends, b.fleet_backends);
    EXPECT_EQ(a.fleet_retries, b.fleet_retries);
    EXPECT_EQ(a.fleet_timeouts, b.fleet_timeouts);
    EXPECT_EQ(a.fleet_duplicates, b.fleet_duplicates);
    EXPECT_EQ(a.fleet_sheds, b.fleet_sheds);
    EXPECT_EQ(a.fleet_requests_failed, b.fleet_requests_failed);
    EXPECT_EQ(a.fleet_failovers, b.fleet_failovers);
    EXPECT_EQ(a.fleet_flows_migrated, b.fleet_flows_migrated);
    EXPECT_EQ(a.fleet_drain_timeouts, b.fleet_drain_timeouts);
    EXPECT_EQ(a.fleet_probes_failed, b.fleet_probes_failed);
    EXPECT_EQ(a.fleet_backend_served_min, b.fleet_backend_served_min);
    EXPECT_EQ(a.fleet_backend_served_max, b.fleet_backend_served_max);
    expectBitEqual(a.energy_fleet_j, b.energy_fleet_j, "energy_fleet_j");
    EXPECT_EQ(a.gov_epochs, b.gov_epochs);
    EXPECT_EQ(a.gov_rebalances, b.gov_rebalances);
    EXPECT_EQ(a.gov_migrations, b.gov_migrations);
    EXPECT_EQ(a.gov_parks, b.gov_parks);
    EXPECT_EQ(a.gov_unparks, b.gov_unparks);
    EXPECT_EQ(a.gov_min_active_cores, b.gov_min_active_cores);
    EXPECT_EQ(a.gov_max_active_cores, b.gov_max_active_cores);
    EXPECT_EQ(a.past_clamps, b.past_clamps);
    EXPECT_EQ(a.trace_spans, b.trace_spans);
    EXPECT_EQ(a.fr_dumps, b.fr_dumps);
    EXPECT_EQ(a.fr_trigger_fault, b.fr_trigger_fault);
    EXPECT_EQ(a.fr_trigger_slo, b.fr_trigger_slo);
    EXPECT_EQ(a.fr_trigger_shed, b.fr_trigger_shed);
    EXPECT_EQ(a.fr_trigger_gov, b.fr_trigger_gov);
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
    expectIdentical(pooled, bare);
}

TEST(Determinism, RepeatedRunsIdentical)
{
    const ServerConfig cfg = faultedHalConfig();
    const RunResult a = runOnce(cfg, 60.0, true);
    const RunResult b = runOnce(cfg, 60.0, true);
    expectIdentical(a, b);
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
    expectIdentical(r_off, r_on);

    // The serialized form must match byte for byte too.
    std::ostringstream ja, jb;
    r_off.toJson(ja);
    r_on.toJson(jb);
    EXPECT_EQ(ja.str(), jb.str());
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
        expectIdentical(rs[i], rp[i]);
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
        expectIdentical(rs[i], rp[i]);
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
        expectIdentical(rs[i], rp[i]);
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

    SweepOptions serial, parallel;
    serial.threads = 1;
    parallel.threads = 4;
    const auto rs = runSweep(points, serial);
    const auto rp = runSweep(points, parallel);
    ASSERT_EQ(rs.size(), points.size());
    ASSERT_EQ(rp.size(), points.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        SCOPED_TRACE(i);
        expectIdentical(rs[i], rp[i]);
    }
}
