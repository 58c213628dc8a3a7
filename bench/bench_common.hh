/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: run a
 * ServerSystem operating point (or a parallel sweep of them) and
 * print paper-style rows.
 *
 * Sweep-style benches accept `--threads N|all` and `--json PATH` via
 * core::parseSweepArgs(); points run concurrently but results are
 * always reported in input order and are identical to a serial run.
 */

#ifndef HALSIM_BENCH_COMMON_HH
#define HALSIM_BENCH_COMMON_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/server.hh"
#include "core/sweep.hh"

namespace halsim::bench {

/** Default measurement windows (simulated time). */
inline constexpr Tick kWarmup = 20 * kMs;
inline constexpr Tick kMeasure = 100 * kMs;

/** One constant-rate operating point. */
inline core::RunResult
runPoint(core::ServerConfig cfg, double rate_gbps, Tick warmup = kWarmup,
         Tick measure = kMeasure)
{
    EventQueue eq;
    core::ServerSystem sys(eq, cfg);
    return sys.run(std::make_unique<net::ConstantRate>(rate_gbps), warmup,
                   measure);
}

/** One datacenter-trace operating point (§VI traces, compressed). */
inline core::RunResult
runTrace(core::ServerConfig cfg, net::TraceKind trace,
         Tick measure = 600 * kMs, Tick resample = 1 * kMs)
{
    EventQueue eq;
    core::ServerSystem sys(eq, cfg);
    return sys.run(net::makeTrace(trace), kWarmup, measure, resample);
}

/**
 * Find the maximum sustainable throughput of a configuration by
 * offering well above any profile and reading the delivered rate.
 */
inline core::RunResult
runSaturated(core::ServerConfig cfg, double line_rate = 100.0)
{
    return runPoint(std::move(cfg), line_rate);
}

/** Build a constant-rate sweep point with bench-default windows. */
inline core::SweepPoint
point(core::ServerConfig cfg, double rate_gbps, Tick warmup = kWarmup,
      Tick measure = kMeasure, std::string label = {})
{
    core::SweepPoint p;
    p.cfg = std::move(cfg);
    p.rate_gbps = rate_gbps;
    p.warmup = warmup;
    p.measure = measure;
    p.label = std::move(label);
    return p;
}

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/**
 * The standard bench command line: the shared sweep flag set
 * (--threads/--json/--stats-out/--trace/--slo-p99/--governor) plus
 * the ubiquitous `--quick` switch, all through the
 * one ArgRegistrar so every bench shares help text and the strict
 * exit-2 contract. @p extra, when given, registers bench-specific
 * flags before parsing.
 */
inline core::SweepOptions
parseBenchArgs(int argc, char **argv, std::string bench_name,
               bool *quick, const std::string &description = "",
               const std::function<void(core::ArgRegistrar &)> &extra = {})
{
    core::SweepOptions opts;
    opts.bench_name = std::move(bench_name);
    core::ArgRegistrar reg(argv[0], description);
    core::registerSweepFlags(reg, opts);
    if (quick != nullptr) {
        reg.flag("--quick", "CI-sized run (shorter windows, fewer points)",
                 [quick] { *quick = true; });
    }
    if (extra)
        extra(reg);
    reg.parse(argc, argv);
    return opts;
}

} // namespace halsim::bench

#endif // HALSIM_BENCH_COMMON_HH
