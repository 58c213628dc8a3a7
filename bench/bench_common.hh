/**
 * @file
 * Shared helpers for the sections of halsim_paper, one per paper
 * table or figure: build sweep points, run the shared saturation
 * phase, print into the section's buffered stdout.
 *
 * Sections run ServerSystems through core::runSweep(); results come in
 * input order and are identical to a serial run.
 */

#ifndef HALSIM_BENCH_COMMON_HH
#define HALSIM_BENCH_COMMON_HH

#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/server.hh"
#include "core/sweep.hh"

namespace halsim::bench {

/**
 * A section's stdout. Sections run concurrently, so each prints into
 * its own buffer and halsim_paper writes the buffers out in paper
 * order.
 */
class Out
{
  public:
    /** Append std::printf(@p fmt, ...) output. */
    [[gnu::format(printf, 2, 3)]] void
    printf(const char *fmt, ...)
    {
        std::va_list args;
        va_start(args, fmt);
        std::va_list again;
        va_copy(again, args);
        const int n = std::vsnprintf(nullptr, 0, fmt, args);
        va_end(args);
        if (n > 0) {
            const std::size_t at = text_.size();
            text_.resize(at + static_cast<std::size_t>(n) + 1);
            std::vsnprintf(text_.data() + at,
                           static_cast<std::size_t>(n) + 1, fmt, again);
            text_.resize(at + static_cast<std::size_t>(n));
        }
        va_end(again);
    }

    const std::string &text() const { return text_; }

  private:
    std::string text_;
};

/**
 * A section body: print its tables to @p out and return its exit
 * status. @p opts carries the shared flags, with `bench_name` set to
 * the section's name (plus `_quick` under @p quick); only sections
 * with a quick set ever see @p quick true.
 */
using SectionFn = int (*)(const core::SweepOptions &opts, bool quick,
                          Out &out);

/** The sections, in paper order; each is defined in bench/<name>.cc. */
int table1_capabilities(const core::SweepOptions &, bool, Out &);
int fig2_throughput_latency(const core::SweepOptions &, bool, Out &);
int table2_slo(const core::SweepOptions &, bool, Out &);
int fig5_slb(const core::SweepOptions &, bool, Out &);
int fig8_traces(const core::SweepOptions &, bool, Out &);
int fig9_hal_sweep(const core::SweepOptions &, bool, Out &);
int table5_workloads(const core::SweepOptions &, bool, Out &);
int fig10_bf3_spr(const core::SweepOptions &, bool, Out &);
int hlb_costs(const core::SweepOptions &, bool, Out &);
int ablation_lbp(const core::SweepOptions &, bool, Out &);
int ablation_director(const core::SweepOptions &, bool, Out &);
int ablation_dvfs(const core::SweepOptions &, bool, Out &);
int fault_recovery(const core::SweepOptions &, bool, Out &);
int fleet_drill(const core::SweepOptions &, bool, Out &);
int governor(const core::SweepOptions &, bool, Out &);

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
banner(Out &out, const std::string &title)
{
    out.printf("\n=== %s ===\n", title.c_str());
}

} // namespace halsim::bench

#endif // HALSIM_BENCH_COMMON_HH
