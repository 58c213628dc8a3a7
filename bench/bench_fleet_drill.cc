/**
 * @file
 * Fleet resilience drill: the health-checked L4 frontend, retrying
 * client, failover, and admission-control shedding exercised across
 * the failure scenarios the fleet layer exists for — a healthy
 * baseline, permanent and transient backend crashes, a backend
 * stall, probe-loss flapping, and a sustained retry storm run both
 * with shedding and as the no-shed ablation.
 *
 * Runs through the parallel sweep harness (`--threads`, `--json`,
 * `--stats-out`); rows carry mode "fleet" and the fleet_* RunResult
 * columns. `--quick` shortens the windows for the CI drift gate
 * against bench/BENCH_fleet_quick.json — the simulation is
 * bit-deterministic, so those numbers must reproduce exactly.
 */

#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fleet/fleet.hh"
#include "net/traffic.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;
using namespace halsim::fleet;

namespace {

FleetConfig
baseConfig()
{
    FleetConfig cfg;
    cfg.backends = 4;
    // Survive a full detection window (fall=3 epochs of 2 ms) plus
    // failover without exhausting any request's budget.
    cfg.client.retry.max_retries = 5;
    return cfg;
}

/** Weak backends (2 cores x 2 Gbps: ~16 Gbps fleet capacity) so a
 *  40 Gbps offered load plus retries is a sustained storm. */
FleetConfig
stormConfig(std::uint32_t shed_watermark)
{
    FleetConfig cfg;
    cfg.backends = 4;
    cfg.backend.cores = 2;
    cfg.backend.core_rate_gbps = 2.0;
    cfg.backend.ring_capacity = 4096;
    cfg.backend.shed_watermark = shed_watermark;
    cfg.client.retry.timeout = 1 * kMs;
    cfg.client.retry.backoff_base = 250 * kUs;
    cfg.client.retry.backoff_cap = 2 * kMs;
    return cfg;
}

FleetSweepPoint
drill(FleetConfig cfg, double rate_gbps, Tick warmup, Tick measure,
      std::string label)
{
    FleetSweepPoint p;
    p.cfg = std::move(cfg);
    p.rate_gbps = rate_gbps;
    p.warmup = warmup;
    p.measure = measure;
    p.label = std::move(label);
    return p;
}

/**
 * Attempt-ledger reconciliation: re-run the permanent-crash drill
 * with warmup 0 and stats on, so the monotone per-request attempts
 * histogram, its registry-owned `fleet.client.attempts` mirror, and
 * the windowed sent/responses/duplicates/drops counters all describe
 * the same drained run and must agree *exactly*. Returns false (and
 * prints why) on any mismatch.
 */
bool
reconcileAttempts(double rate_gbps, Tick measure)
{
    FleetConfig cfg = baseConfig();
    cfg.faults.backendCrash(1, measure / 2); // permanent
    cfg.obs.stats = true;
    cfg.obs.spans = true;

    EventQueue eq;
    FleetSystem fs(eq, std::move(cfg));
    RunResult r = fs.run(
        std::make_unique<net::ConstantRate>(rate_gbps), 0, measure);

    bool ok = true;
    const auto check = [&ok](const char *what, std::uint64_t got,
                             std::uint64_t want) {
        if (got == want)
            return;
        std::fprintf(stderr,
                     "attempt-ledger mismatch: %s = %llu, want %llu\n",
                     what, static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(want));
        ok = false;
    };

    // Drained to quiescence, every attempt is accounted: the per-
    // request attempts histogram sums back to the wire sends, and
    // every send either completed, was suppressed as a duplicate, or
    // died inside the fleet.
    const auto sum = [](const Histogram &h) {
        return static_cast<std::uint64_t>(h.sum());
    };
    check("attempts.sum()", sum(fs.client().attempts()),
          fs.client().sends());
    check("sent", r.sent,
          r.responses + r.fleet_duplicates + r.drops);

    const Histogram *reg =
        fs.obs()->registry().findHistogram("fleet.client.attempts");
    if (reg == nullptr) {
        std::fprintf(stderr, "attempt-ledger mismatch: "
                             "fleet.client.attempts not registered\n");
        ok = false;
    } else {
        // Window-scoped mirror; with warmup 0 the window is the run.
        check("registry fleet.client.attempts sum", sum(*reg), r.sent);
    }
    if (ok)
        std::printf("\nattempt ledger reconciles: %llu attempts = "
                    "%llu responses + %llu duplicates + %llu drops\n",
                    static_cast<unsigned long long>(r.sent),
                    static_cast<unsigned long long>(r.responses),
                    static_cast<unsigned long long>(
                        r.fleet_duplicates),
                    static_cast<unsigned long long>(r.drops));
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    const SweepOptions opts = parseSweepArgs(
        argc, argv, "fleet_drill", &quick,
        "Fleet resilience drill: crash/stall/flap/storm scenarios.");

    const Tick warmup = quick ? 5 * kMs : 10 * kMs;
    const Tick measure = quick ? 25 * kMs : 60 * kMs;
    const double rate = 24.0;

    std::vector<FleetSweepPoint> points;
    points.push_back(
        drill(baseConfig(), rate, warmup, measure, "healthy"));

    {
        auto cfg = baseConfig();
        cfg.faults.backendCrash(1, measure / 2); // permanent
        points.push_back(
            drill(std::move(cfg), rate, warmup, measure, "crash-1"));
    }
    {
        auto cfg = baseConfig();
        // Down long enough to be detected (fall=3 epochs of 2 ms),
        // then back: the rise hysteresis re-admits it.
        cfg.faults.backendCrash(2, measure / 4, 12 * kMs);
        points.push_back(
            drill(std::move(cfg), rate, warmup, measure, "crash-blip"));
    }
    {
        auto cfg = baseConfig();
        cfg.faults.backendStall(1, measure / 4, 10 * kMs);
        points.push_back(
            drill(std::move(cfg), rate, warmup, measure, "stall-1"));
    }
    {
        auto cfg = baseConfig();
        // Probes dropped at 15%: individual failures, but three in a
        // row on one backend stay rare — hysteresis absorbs the flap.
        cfg.faults.probeLoss(0.15, 5 * kMs, measure);
        points.push_back(
            drill(std::move(cfg), rate, warmup, measure, "probe-flap"));
    }
    points.push_back(
        drill(stormConfig(64), 40.0, warmup, measure, "storm-shed"));
    points.push_back(
        drill(stormConfig(0), 40.0, warmup, measure, "storm-noshed"));

    const std::vector<RunResult> results = runFleetSweep(points, opts);

    banner("Fleet resilience drill (4 backends behind the L4 "
           "frontend)");
    std::printf("%-12s %8s %8s %9s | %5s %7s %8s %7s %7s\n", "scenario",
                "offGbps", "delGbps", "p99_us", "fails", "retries",
                "sheds", "failov", "drops");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RunResult &r = results[i];
        std::printf("%-12s %8.2f %8.2f %9.1f | %5llu %7llu %8llu "
                    "%7llu %7llu\n",
                    points[i].label.c_str(), r.offered_gbps,
                    r.delivered_gbps, r.p99_us,
                    static_cast<unsigned long long>(
                        r.fleet_requests_failed),
                    static_cast<unsigned long long>(r.fleet_retries),
                    static_cast<unsigned long long>(r.fleet_sheds),
                    static_cast<unsigned long long>(r.fleet_failovers),
                    static_cast<unsigned long long>(r.drops));
    }
    std::printf("\nshedding under the storm: p99 %.1f us at %.2f Gbps "
                "goodput vs the no-shed ablation's %.1f us at %.2f "
                "Gbps\n",
                results[points.size() - 2].p99_us,
                results[points.size() - 2].delivered_gbps,
                results[points.size() - 1].p99_us,
                results[points.size() - 1].delivered_gbps);

    if (!reconcileAttempts(rate, measure))
        return 1;
    return 0;
}
