/**
 * @file
 * Fig. 10 reproduction: BlueField-3 CPU vs Sapphire Rapids CPU for
 * the software-only functions at 200 Gbps — max throughput, p99
 * latency (top), average power and energy efficiency (bottom).
 *
 * Paper anchors: BF-3 up to 80% lower throughput and up to 61x
 * higher p99 than SPR; SPR up to ~80% higher system EE; lightweight
 * functions (Count, NAT) look similar only because the 100 Gbps
 * client saturates first — we keep that cap to match the setup.
 *
 * Two chained parallel sweeps (bench_common.hh's saturate() and
 * atMaxTp()): first saturate every (function, processor) point, then
 * measure latency/EE at 95% of the saturated rate; artifacts are
 * written for the measured pass only.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

constexpr funcs::FunctionId kSwFuncs[] = {
    funcs::FunctionId::Kvs, funcs::FunctionId::Count,
    funcs::FunctionId::Ema, funcs::FunctionId::Nat,
    funcs::FunctionId::Bm25, funcs::FunctionId::Knn,
    funcs::FunctionId::Bayes,
};

ServerConfig
platformConfig(funcs::FunctionId fn, Mode mode)
{
    ServerConfig cfg;
    cfg.mode = mode;
    cfg.function = fn;
    cfg.snic_platform = funcs::Platform::SnicBf3;
    cfg.host_platform = funcs::Platform::HostSpr;
    cfg.snic_cores = 16;
    cfg.host_cores = 16;
    return cfg;
}

} // namespace

int
bench::fig10_bf3_spr(const SweepOptions &opts, bool, Out &out)
{
    LabelledConfigs cfgs;
    for (funcs::FunctionId fn : kSwFuncs) {
        for (Mode mode : {Mode::SnicOnly, Mode::HostOnly}) {
            const char *cpu = mode == Mode::SnicOnly ? "bf3" : "spr";
            cfgs.emplace_back(std::string(cpu) + ":" +
                                  funcs::functionName(fn),
                              platformConfig(fn, mode));
        }
    }
    const std::vector<RunResult> sat = saturate(cfgs, opts);
    // The reported latency/EE point sits just under each processor's
    // saturated rate.
    const std::vector<RunResult> lat = runSweep(atMaxTp(cfgs, sat), opts);

    banner(out, "Fig. 10: BF-3 CPU vs Sapphire Rapids CPU (software "
                "functions, 100 Gbps client cap)");
    out.printf("%-8s %9s %9s %7s | %9s %9s %7s | %7s %7s %7s\n",
               "function", "bf3Gbps", "sprGbps", "tpRatio", "bf3P99",
               "sprP99", "p99x", "bf3EE", "sprEE", "eeRatio");
    std::size_t i = 0;
    for (funcs::FunctionId fn : kSwFuncs) {
        const RunResult &bf3_sat = sat[i];
        const RunResult &bf3_lat = lat[i];
        ++i;
        const RunResult &spr_sat = sat[i];
        const RunResult &spr_lat = lat[i];
        ++i;
        out.printf("%-8s %9.2f %9.2f %7.2f | %9.1f %9.1f %7.1f | "
                   "%7.4f %7.4f %7.2f\n",
                   funcs::functionName(fn), bf3_sat.delivered_gbps,
                   spr_sat.delivered_gbps,
                   bf3_sat.delivered_gbps / spr_sat.delivered_gbps,
                   bf3_lat.p99_us, spr_lat.p99_us,
                   bf3_lat.p99_us / spr_lat.p99_us, bf3_lat.energy_eff,
                   spr_lat.energy_eff,
                   spr_lat.energy_eff / bf3_lat.energy_eff);
    }
    out.printf("\npaper: BF-3 up to 80%% lower TP, up to 61x higher "
               "p99; SPR up to ~80%% higher EE; Count/NAT capped by "
               "the 100 Gbps client\n");
    return 0;
}
