/**
 * @file
 * Fig. 3 reproduction: average system power and energy efficiency
 * (throughput / system power) of a server using the SNIC processor,
 * normalized to a server using the host processor, each at its own
 * maximum sustainable throughput point.
 *
 * Paper anchors: server idle 194 W, SNIC 29 W idle / 30-37 W loaded;
 * SNIC contributes 0.5-2% of system power; host gives 73% higher EE
 * on average for the software functions (throughput dominates EE).
 *
 * Runs as two sweeps through the parallel harness (`--threads`,
 * `--json`, `--stats-out`, `--trace`): a saturation pass to find each
 * platform's max throughput, then the measured pass at 95% of it —
 * artifacts are written for the measured pass only. `--quick`
 * restricts to three representative functions (one software, one
 * stateful, one accelerated) for the CI regression gate.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

constexpr funcs::FunctionId kQuickFns[] = {funcs::FunctionId::DpdkFwd,
                                           funcs::FunctionId::Nat,
                                           funcs::FunctionId::Crypto};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    const SweepOptions opts = parseSweepArgs(
        argc, argv, "fig3_power_efficiency", &quick,
        "Fig. 3: SNIC vs host power and energy efficiency at max TP.");

    std::vector<funcs::FunctionId> fns;
    if (quick)
        fns.assign(std::begin(kQuickFns), std::end(kQuickFns));
    else
        for (funcs::FunctionId fn : funcs::allFunctions())
            fns.push_back(fn);

    // Phase 1: saturate both platforms to find each one's max
    // sustainable throughput (no artifacts for this pass).
    LabelledConfigs cfgs;
    for (funcs::FunctionId fn : fns) {
        cfgs.emplace_back(std::string("snic:") + funcs::functionName(fn),
                          ServerConfig::snicBaseline(fn));
        cfgs.emplace_back(std::string("host:") + funcs::functionName(fn),
                          ServerConfig::hostBaseline(fn));
    }
    const std::vector<RunResult> sat = saturate(cfgs, opts);

    // Phase 2: measure power/EE at 95% of each max (the paper's
    // operating point); this pass writes the requested artifacts.
    const std::vector<RunResult> results =
        runSweep(atMaxTp(cfgs, sat), opts);

    banner("Fig. 3: system power and energy efficiency at max TP "
           "(SNIC/host normalized)");
    std::printf("%-8s %8s %8s %8s | %9s %9s %8s\n", "function", "snicW",
                "hostW", "powRatio", "snicEE", "hostEE", "eeRatio");

    double geo = 1.0;
    for (std::size_t i = 0; i < fns.size(); ++i) {
        const RunResult &snic = results[2 * i];
        const RunResult &host = results[2 * i + 1];
        std::printf("%-8s %8.1f %8.1f %8.3f | %9.4f %9.4f %8.3f\n",
                    funcs::functionName(fns[i]), snic.system_power_w,
                    host.system_power_w,
                    snic.system_power_w / host.system_power_w,
                    snic.energy_eff, host.energy_eff,
                    snic.energy_eff / host.energy_eff);
        geo *= host.energy_eff / snic.energy_eff;
    }
    std::printf("\nhost EE advantage (geomean over functions): %.1f%%\n",
                100.0 * (std::pow(geo, 1.0 / static_cast<double>(
                                           fns.size())) -
                         1.0));
    std::printf("paper: host ~73%% higher EE on average for "
                "software-only functions\n");
    return 0;
}
