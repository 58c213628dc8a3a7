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
#include <memory>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

/** On ServerSystem directly, not runSweep: reads the final DVFS scale. */
RunResult
runDvfs(Mode mode, double rate, bool dvfs, double *scale_out)
{
    ServerConfig cfg;
    cfg.mode = mode;
    cfg.function = funcs::FunctionId::Nat;
    cfg.power.snic_dvfs.enabled = dvfs;
    EventQueue eq;
    ServerSystem sys(eq, cfg);
    const auto r = sys.run(std::make_unique<net::ConstantRate>(rate),
                           20 * kMs, 100 * kMs);
    if (scale_out != nullptr && sys.snicProcessor() != nullptr)
        *scale_out = sys.snicProcessor()->dvfsScale();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgRegistrar(argv[0], "§VIII: SNIC DVFS ablation.").parse(argc, argv);
    banner("§VIII: SNIC DVFS ablation (NAT)");
    std::printf("%5s %5s | %8s %9s %8s %8s | %9s\n", "Gbps", "dvfs",
                "tp", "p99us", "sysW", "ee", "fscaleEnd");
    for (double rate : {5.0, 15.0, 30.0, 60.0, 90.0}) {
        for (bool dvfs : {false, true}) {
            double scale = 1.0;
            const auto r = runDvfs(Mode::Hal, rate, dvfs, &scale);
            std::printf("%5.0f %5s | %8.1f %9.1f %8.1f %8.4f | %9.2f\n",
                        rate, dvfs ? "on" : "off", r.delivered_gbps,
                        r.p99_us, r.system_power_w, r.energy_eff, scale);
        }
    }
    std::printf("\npaper: LBP remains effective under DVFS; system "
                "power saving bounded by ~2%% (SNIC is 0.5-2%% of "
                "system power)\n");
    return 0;
}
