/**
 * @file
 * Fault drill matrix: HAL (and baselines where noted) under injected
 * faults — processor crashes, transient blips, control-channel loss,
 * link loss bursts, accelerator failure, core slowdown — reporting
 * delivered throughput, tail latency, loss, failover counts, time
 * degraded, and detect->recover latency for each scenario.
 *
 * The healthy row is the reference: graceful degradation means every
 * faulted row still delivers its surviving capacity, and transient
 * rows recover within a few watchdog epochs.
 *
 * Every drill is an independent operating point, so the whole matrix
 * runs through the parallel sweep harness (`--threads`, `--json`).
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::core;
using halsim::fault::FaultTarget;

namespace {

struct Scenario
{
    std::string name;
    Mode mode = Mode::Hal;
    double rate_gbps = 60.0;
    std::function<void(ServerConfig &)> plan;
};

SweepPoint
toPoint(const Scenario &s)
{
    ServerConfig cfg;
    cfg.mode = s.mode;
    cfg.function = funcs::FunctionId::Nat;
    if (s.plan)
        s.plan(cfg);
    return bench::point(cfg, s.rate_gbps, bench::kWarmup,
                        bench::kMeasure, s.name);
}

void
row(bench::Out &out, const Scenario &s, const RunResult &r)
{
    out.printf("%-14s %8.1f %10.1f %9.1f %7.2f%% %6llu %6llu %10.1f "
               "%9.1f\n",
               s.name.c_str(), s.rate_gbps, r.delivered_gbps, r.p99_us,
               100.0 * r.lossFraction(),
               static_cast<unsigned long long>(r.failovers),
               static_cast<unsigned long long>(r.recoveries),
               r.degraded_us / 1e3, r.time_to_recover_us / 1e3);
}

} // namespace

int
bench::fault_recovery(const SweepOptions &opts, bool, bench::Out &out)
{
    const std::vector<Scenario> scenarios = {
        {"healthy", Mode::Hal, 60.0, nullptr},
        {"host-crash", Mode::Hal, 60.0,
         [](ServerConfig &c) {
             c.faults.processorFailure(FaultTarget::Host, 60 * kMs);
         }},
        {"host-blip", Mode::Hal, 60.0,
         [](ServerConfig &c) {
             c.faults.processorFailure(FaultTarget::Host, 50 * kMs,
                                       20 * kMs);
         }},
        {"snic-crash", Mode::Hal, 20.0,
         [](ServerConfig &c) {
             c.faults.processorFailure(FaultTarget::Snic, 60 * kMs);
         }},
        {"ctrl-loss", Mode::Hal, 60.0,
         [](ServerConfig &c) {
             c.faults.controlLoss(1.0, 50 * kMs, 30 * kMs);
         }},
        {"lbp-stall", Mode::Hal, 60.0,
         [](ServerConfig &c) { c.faults.lbpStall(50 * kMs, 30 * kMs); }},
        {"link-burst", Mode::Hal, 60.0,
         [](ServerConfig &c) {
             c.faults.linkLossBurst(FaultTarget::ClientLink, 0.3,
                                    50 * kMs, 20 * kMs);
         }},
        {"snic-slow", Mode::Hal, 60.0,
         [](ServerConfig &c) {
             c.faults.coreSlowdown(FaultTarget::Snic, 0.5, 50 * kMs,
                                   30 * kMs);
         }},
        {"core-stall", Mode::Hal, 60.0,
         [](ServerConfig &c) {
             c.faults.coreStall(FaultTarget::Snic, fault::kAllCores,
                                50 * kMs, 10 * kMs);
         }},
    };

    // The accelerator-fallback pair rides in the same sweep after the
    // drill matrix.
    std::vector<SweepPoint> points;
    points.reserve(scenarios.size() + 2);
    for (const auto &s : scenarios)
        points.push_back(toPoint(s));
    for (const bool faulty : {false, true}) {
        ServerConfig cfg;
        cfg.mode = Mode::SnicOnly;
        cfg.function = funcs::FunctionId::Compress;
        if (faulty)
            cfg.faults.accelFailure(FaultTarget::Snic, 40 * kMs);
        points.push_back(bench::point(cfg, 30.0, bench::kWarmup,
                                      bench::kMeasure,
                                      faulty ? "accel-dead" : "accel-ok"));
    }

    const std::vector<RunResult> results = runSweep(points, opts);

    bench::banner(out, "Fault injection / graceful degradation drills "
                       "(NAT, 100 ms measure)");
    out.printf("%-14s %8s %10s %9s %8s %6s %6s %10s %9s\n", "scenario",
               "offered", "delivered", "p99us", "loss", "fails", "recov",
               "degr_ms", "ttr_ms");
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        row(out, scenarios[i], results[i]);

    bench::banner(out, "Accelerator failure -> software fallback "
                       "(Compress, SNIC-only)");
    out.printf("%-14s %8s %10s %9s %8s\n", "scenario", "offered",
               "delivered", "p99us", "loss");
    for (std::size_t i = scenarios.size(); i < points.size(); ++i) {
        const RunResult &r = results[i];
        out.printf("%-14s %8.1f %10.1f %9.1f %7.2f%%\n",
                   points[i].label.c_str(), 30.0, r.delivered_gbps,
                   r.p99_us, 100.0 * r.lossFraction());
    }
    return 0;
}
