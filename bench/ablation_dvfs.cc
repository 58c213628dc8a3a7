/**
 * @file
 * §VIII reproduction: impact of SNIC-processor DVFS on LBP
 * effectiveness and on system power. The paper argues (a) the LBP
 * still works because the Rx-queue occupancy signal reflects the
 * V/F-dependent processing capability, and (b) the system-wide power
 * saving is bounded by ~2% because the SNIC is a sliver of system
 * power.
 */

#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "sim/parallel.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

struct DvfsRun
{
    RunResult r;
    double scale = 1.0; //!< the SNIC's final DVFS scale
};

/** On ServerSystem directly, not runSweep: reads the final DVFS scale. */
DvfsRun
runDvfs(Mode mode, double rate, bool dvfs)
{
    ServerConfig cfg;
    cfg.mode = mode;
    cfg.function = funcs::FunctionId::Nat;
    cfg.power.snic_dvfs.enabled = dvfs;
    EventQueue eq;
    ServerSystem sys(eq, cfg);
    DvfsRun run;
    run.r = sys.run(std::make_unique<net::ConstantRate>(rate), 20 * kMs,
                    100 * kMs);
    if (sys.snicProcessor() != nullptr)
        run.scale = sys.snicProcessor()->dvfsScale();
    return run;
}

constexpr double kRates[] = {5.0, 15.0, 30.0, 60.0, 90.0};

} // namespace

int
bench::ablation_dvfs(const SweepOptions &opts, bool, Out &out)
{
    // Point 2k is rate k with DVFS off, 2k+1 with it on.
    std::vector<DvfsRun> runs(2 * std::size(kRates));
    parallelFor(runs.size(), opts.threads, [&](std::size_t i) {
        runs[i] = runDvfs(Mode::Hal, kRates[i / 2], i % 2 == 1);
    });

    banner(out, "§VIII: SNIC DVFS ablation (NAT)");
    out.printf("%5s %5s | %8s %9s %8s %8s | %9s\n", "Gbps", "dvfs", "tp",
               "p99us", "sysW", "ee", "fscaleEnd");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i].r;
        out.printf("%5.0f %5s | %8.1f %9.1f %8.1f %8.4f | %9.2f\n",
                   kRates[i / 2], i % 2 == 1 ? "on" : "off",
                   r.delivered_gbps, r.p99_us, r.system_power_w,
                   r.energy_eff, runs[i].scale);
    }
    out.printf("\npaper: LBP remains effective under DVFS; system "
               "power saving bounded by ~2%% (SNIC is 0.5-2%% of "
               "system power)\n");
    return 0;
}
