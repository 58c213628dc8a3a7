/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: build
 * sweep points, run the shared saturation phase, print banners.
 *
 * Benches run ServerSystems through core::runSweep() and parse argv
 * with core::parseSweepArgs(); results come in input order and are
 * identical to a serial run.
 */

#ifndef HALSIM_BENCH_COMMON_HH
#define HALSIM_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/server.hh"
#include "core/sweep.hh"

namespace halsim::bench {

/** Default measurement windows (simulated time). */
inline constexpr Tick kWarmup = 20 * kMs;
inline constexpr Tick kMeasure = 100 * kMs;

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

/**
 * Options for an intermediate phase of a multi-phase bench: every
 * option of @p opts (worker count, `--governor`, `--slo-p99`, ...)
 * except the four artifact paths, which belong to the bench's measured
 * phase, and the bench name `<name>_<phase>`.
 */
inline core::SweepOptions
phaseOptions(const core::SweepOptions &opts, const std::string &phase)
{
    core::SweepOptions phase_opts = opts;
    phase_opts.json_path.clear();
    phase_opts.stats_path.clear();
    phase_opts.trace_path.clear();
    phase_opts.flightrec_path.clear();
    phase_opts.bench_name = opts.bench_name + "_" + phase;
    return phase_opts;
}

/** Configs to sweep, each with the label its points carry. */
using LabelledConfigs =
    std::vector<std::pair<std::string, core::ServerConfig>>;

/**
 * The saturation phase: offer 100 Gbps, above any profile, to each
 * config and read the delivered rate as its maximum sustainable
 * throughput. One artifact-free sweep (phaseOptions(opts,
 * "saturate")), 10 ms warm-up, @p measure window, labels `sat:<label>`.
 */
inline std::vector<core::RunResult>
saturate(const LabelledConfigs &cfgs, const core::SweepOptions &opts,
         Tick measure = 60 * kMs)
{
    std::vector<core::SweepPoint> points;
    for (const auto &[label, cfg] : cfgs)
        points.push_back(
            point(cfg, 100.0, 10 * kMs, measure, "sat:" + label));
    return core::runSweep(points, phaseOptions(opts, "saturate"));
}

/**
 * The paper's "packet rate achieving the maximum throughput": each
 * config at 95% of the rate it delivered saturated (@p sat, from
 * saturate()), with 10/60 ms windows and its own label.
 */
inline std::vector<core::SweepPoint>
atMaxTp(const LabelledConfigs &cfgs, const std::vector<core::RunResult> &sat)
{
    std::vector<core::SweepPoint> points;
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        points.push_back(point(cfgs[i].second, sat[i].delivered_gbps * 0.95,
                               10 * kMs, 60 * kMs, cfgs[i].first));
    return points;
}

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace halsim::bench

#endif // HALSIM_BENCH_COMMON_HH
