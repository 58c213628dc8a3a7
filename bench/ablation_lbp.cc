/**
 * @file
 * Ablation: sensitivity of HAL to the LBP constants of Algorithm 1 —
 * Step_Th, the watermark band, the policy epoch, and the adaptive-
 * step extension (§V-B). Run on NAT under the cache trace (bursty)
 * and at a fixed 60 Gbps (steady overload).
 *
 * What to look for: larger steps/epochs react faster but overshoot
 * (worse p99); wider watermark bands squeeze more SNIC throughput at
 * the cost of queueing delay; the adaptive step recovers most of the
 * fast-reaction benefit without the overshoot.
 *
 * All (variant, workload) points are independent and run through the
 * parallel sweep harness: `--threads all`, `--json PATH`,
 * `--stats-out PATH`, `--trace PATH`.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

struct Variant
{
    const char *name;
    double step;
    Tick epoch;
    std::uint32_t wm_low, wm_high;
    bool adaptive;
};

const Variant kVariants[] = {
    {"default", 1.0, 100 * kUs, 4, 48, false},
    {"step0.25", 0.25, 100 * kUs, 4, 48, false},
    {"step4", 4.0, 100 * kUs, 4, 48, false},
    {"epoch20us", 1.0, 20 * kUs, 4, 48, false},
    {"epoch1ms", 1.0, 1 * kMs, 4, 48, false},
    {"band8-256", 1.0, 100 * kUs, 8, 256, false},
    {"band2-16", 1.0, 100 * kUs, 2, 16, false},
    {"adaptive", 1.0, 100 * kUs, 4, 48, true},
};

SweepPoint
variantPoint(const Variant &v, bool trace)
{
    ServerConfig cfg = ServerConfig::halDefault();
    cfg.lbp.step_gbps = v.step;
    cfg.lbp.epoch = v.epoch;
    cfg.lbp.wm_low = v.wm_low;
    cfg.lbp.wm_high = v.wm_high;
    cfg.lbp.adaptive_step = v.adaptive;

    if (trace)
        return {.cfg = cfg, .trace = net::TraceKind::Cache,
                .measure = 300 * kMs, .resample = 2 * kMs,
                .label = std::string("cache:") + v.name};
    return point(cfg, 60.0, 20 * kMs, 100 * kMs,
                 std::string("const60:") + v.name);
}

} // namespace

int
bench::ablation_lbp(const SweepOptions &opts, bool, Out &out)
{
    std::vector<SweepPoint> points;
    for (bool trace : {false, true})
        for (const Variant &v : kVariants)
            points.push_back(variantPoint(v, trace));

    const std::vector<RunResult> results = runSweep(points, opts);

    std::size_t i = 0;
    for (bool trace : {false, true}) {
        banner(out, std::string("LBP ablation: NAT, ") +
                    (trace ? "cache trace" : "60 Gbps constant"));
        out.printf("%-10s | %7s %9s %7s %8s %7s\n", "variant", "tp",
                   "p99us", "avgW", "snic%", "fwdTh");
        for (const Variant &v : kVariants) {
            const RunResult &r = results[i++];
            const double snic_share =
                100.0 * static_cast<double>(r.snic_frames) /
                static_cast<double>(r.snic_frames + r.host_frames);
            out.printf("%-10s | %7.1f %9.1f %7.1f %7.1f%% %7.1f\n",
                       v.name, r.delivered_gbps, r.p99_us,
                       r.system_power_w, snic_share,
                       r.final_fwd_th_gbps);
        }
    }
    return 0;
}
