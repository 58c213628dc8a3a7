/**
 * @file
 * Fig. 4 and Fig. 9 reproduction, from one sweep.
 *
 * Fig. 9: throughput, p99 latency, and power consumption across
 * packet rates for NAT and REM under Host-only, SNIC-only, and HAL.
 *
 * Fig. 4: throughput, p99 latency (top) and system power, energy
 * efficiency (bottom) versus packet rate, for REM (left) and NAT
 * (right) on the host processor and SNIC processor — read from the
 * same sweep's host and SNIC points.
 *
 * Fig. 9 anchors: the SNIC drops beyond 41 Gbps (NAT) / ~42-50 Gbps
 * (REM accel) with 56-120x tail blow-up at 80 Gbps; HAL tracks the
 * SNIC's latency within ~3% below the knee and scales linearly above
 * it; HAL's power sits 11-27% below host-only at high rates. Power
 * here is dynamic (above the 194 W server base), matching the
 * paper's 32-139 W host-CPU numbers.
 *
 * Fig. 4 anchors: the SNIC processor improves system EE below
 * ~30 Gbps (REM) / ~41 Gbps (NAT) without hurting p99; above, it
 * drops packets and its tail explodes (REM's accelerator tail stays
 * flat because only surviving packets are measured). Its power is
 * system power and its EE throughput / system power.
 *
 * All 66 (function, rate, mode) points run through the parallel
 * sweep harness (`--threads`, `--json`).
 */

#include <cstdio>
#include <iterator>
#include <vector>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

constexpr double kRates[] = {5.0,  10.0, 20.0, 30.0, 40.0, 50.0,
                             60.0, 70.0, 80.0, 90.0, 100.0};
constexpr funcs::FunctionId kFns[] = {funcs::FunctionId::Nat,
                                      funcs::FunctionId::Rem};
constexpr Mode kModes[] = {Mode::HostOnly, Mode::SnicOnly, Mode::Hal};
/** Fig. 4's panel order: REM, then NAT. */
constexpr std::size_t kFig4Fns[] = {1, 0};

} // namespace

int
bench::fig9_hal_sweep(const SweepOptions &opts, bool, Out &out)
{
    std::vector<SweepPoint> points;
    for (funcs::FunctionId fn : kFns) {
        for (double rate : kRates) {
            for (Mode mode : kModes) {
                ServerConfig cfg;
                cfg.mode = mode;
                cfg.function = fn;
                points.push_back(point(
                    cfg, rate, 15 * kMs, 80 * kMs,
                    std::string(modeName(mode)) + ":" +
                        funcs::functionName(fn) + "@" +
                        std::to_string(static_cast<int>(rate))));
            }
        }
    }

    const std::vector<RunResult> results = runSweep(points, opts);
    // Point of function f, rate r and mode m.
    const auto at = [&results](std::size_t f, std::size_t r,
                               std::size_t m) -> const RunResult & {
        return results[(f * std::size(kRates) + r) * std::size(kModes) +
                       m];
    };

    for (std::size_t f : kFig4Fns) {
        banner(out, std::string("Fig. 4: rate sweep for ") +
                        funcs::functionName(kFns[f]));
        out.printf("%5s | %8s %9s %8s %8s | %8s %9s %8s %8s\n", "Gbps",
                   "hostTP", "hostP99us", "hostW", "hostEE", "snicTP",
                   "snicP99us", "snicW", "snicEE");
        for (std::size_t r = 0; r < std::size(kRates); ++r) {
            const RunResult &h = at(f, r, 0);
            const RunResult &s = at(f, r, 1);
            out.printf("%5.0f | %8.1f %9.1f %8.1f %8.4f | %8.1f %9.1f "
                       "%8.1f %8.4f%s\n",
                       kRates[r], h.delivered_gbps, h.p99_us,
                       h.system_power_w, h.energy_eff, s.delivered_gbps,
                       s.p99_us, s.system_power_w, s.energy_eff,
                       s.drops > 0 ? "  (snic dropping)" : "");
        }
    }
    out.printf("\npaper: SNIC EE advantage holds below 30 Gbps (REM) / "
               "41 Gbps (NAT); beyond, drops + tail blow-up\n");

    for (std::size_t f = 0; f < std::size(kFns); ++f) {
        banner(out, std::string("Fig. 9: ") + funcs::functionName(kFns[f]) +
                        " under host / snic / hal");
        out.printf("%5s |", "Gbps");
        for (const char *m : {"host", "snic", "hal"})
            out.printf("  %s: %7s %9s %7s |", m, "tp", "p99us", "dynW");
        out.printf("\n");

        for (std::size_t r = 0; r < std::size(kRates); ++r) {
            out.printf("%5.0f |", kRates[r]);
            for (std::size_t m = 0; m < std::size(kModes); ++m) {
                const RunResult &res = at(f, r, m);
                out.printf("  %13.1f %9.1f %7.1f |", res.delivered_gbps,
                           res.p99_us, res.dynamic_power_w);
            }
            out.printf("\n");
        }
    }
    out.printf("\npaper: SNIC knees at 41 (NAT) / ~42 (REM); HAL "
               "linear to line rate, power 11-27%% below host\n");
    return 0;
}
