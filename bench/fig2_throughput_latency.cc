/**
 * @file
 * Fig. 2 and Fig. 3 reproduction, from one pair of sweeps.
 *
 * Fig. 2: maximum throughput and p99 latency of the ten functions on
 * the SNIC processor, normalized to the host processor (MTU frames).
 * The cryptography bars additionally report the PKA micro-operation
 * comparison the paper measures (RSA/DH/DSA ops on QAT vs the BF-2
 * PKA), and REM reports both rulesets.
 *
 * Fig. 3: average system power and energy efficiency (throughput /
 * system power) of a server using the SNIC processor, normalized to
 * a server using the host processor, each at its own maximum
 * sustainable throughput point — the same operating points where
 * Fig. 2 reads p99. REM's Fig. 3 row is its teakettle point.
 *
 * Fig. 2 anchors: host crypto accel 24-115x SNIC; compression host at
 * 46-72% of SNIC; REM tea host +93% TP / -81% p99, REM lite SNIC 19x
 * TP / -94% p99; software functions: SNIC 24-69% lower TP, 1.1-27x
 * higher p99. Fig. 3 anchors: server idle 194 W, SNIC 29 W idle /
 * 30-37 W loaded; SNIC contributes 0.5-2% of system power; host gives
 * 73% higher EE on average for the software functions (throughput
 * dominates EE).
 *
 * Runs as two sweeps through the parallel harness (`--threads`,
 * `--json`, `--stats-out`, `--trace`): a saturation pass whose
 * delivered rate is the "max TP" column, then the measured pass at
 * 95% of it (the paper's "packet rate achieving the maximum
 * throughput"); artifacts are written for the measured pass only.
 * `--quick` restricts to three representative functions (one
 * software, one stateful, one accelerated) for the CI drift gate.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "funcs/calibration.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

constexpr funcs::FunctionId kQuickFns[] = {funcs::FunctionId::DpdkFwd,
                                           funcs::FunctionId::Nat,
                                           funcs::FunctionId::Crypto};

struct RowSpec
{
    funcs::FunctionId fn;
    alg::RulesetKind ruleset;
    std::string label;
};

ServerConfig
configFor(const RowSpec &spec, Mode mode)
{
    ServerConfig cfg = mode == Mode::SnicOnly
                           ? ServerConfig::snicBaseline(spec.fn)
                           : ServerConfig::hostBaseline(spec.fn);
    cfg.rem_ruleset = spec.ruleset;
    return cfg;
}

} // namespace

int
bench::fig2_throughput_latency(const SweepOptions &opts, bool quick,
                               Out &out)
{

    std::vector<funcs::FunctionId> fns;
    if (quick)
        fns.assign(std::begin(kQuickFns), std::end(kQuickFns));
    else
        fns = funcs::allFunctions();

    std::vector<RowSpec> rows;
    for (funcs::FunctionId fn : fns) {
        if (fn == funcs::FunctionId::Rem)
            continue;   // printed per ruleset below
        rows.push_back({fn, alg::RulesetKind::Teakettle,
                        funcs::functionName(fn)});
    }
    if (std::find(fns.begin(), fns.end(), funcs::FunctionId::Rem) !=
        fns.end()) {
        rows.push_back({funcs::FunctionId::Rem, alg::RulesetKind::Teakettle,
                        "rem-tea"});
        rows.push_back({funcs::FunctionId::Rem,
                        alg::RulesetKind::SnortLiterals, "rem-lite"});
    }

    // Phase 1: saturate to find each platform's max throughput.
    LabelledConfigs cfgs;
    for (const RowSpec &spec : rows) {
        cfgs.emplace_back("snic:" + spec.label,
                          configFor(spec, Mode::SnicOnly));
        cfgs.emplace_back("host:" + spec.label,
                          configFor(spec, Mode::HostOnly));
    }
    const std::vector<RunResult> sat = saturate(cfgs, opts);

    // Phase 2: p99, power and EE at 95% of each max; writes the
    // requested artifacts.
    const std::vector<RunResult> lat = runSweep(atMaxTp(cfgs, sat), opts);

    banner(out, "Fig. 2: max throughput and p99 latency, SNIC vs host (MTU)");
    out.printf("%-10s %8s %8s %8s | %9s %9s %8s\n", "function",
               "snicGbps", "hostGbps", "tpRatio", "snicP99us",
               "hostP99us", "p99Ratio");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const double snic_tp = sat[2 * i].delivered_gbps;
        const double host_tp = sat[2 * i + 1].delivered_gbps;
        const double snic_p99 = lat[2 * i].p99_us;
        const double host_p99 = lat[2 * i + 1].p99_us;
        out.printf("%-10s %8.2f %8.2f %8.3f | %9.1f %9.1f %8.2f\n",
                   rows[i].label.c_str(), snic_tp, host_tp,
                   snic_tp / host_tp, snic_p99, host_p99,
                   snic_p99 / host_p99);
    }

    banner(out, "Fig. 2 inset: PKA micro-operations (QAT vs BF-2 PKA)");
    out.printf("%-10s %10s %10s %8s | %9s %9s %8s\n", "op", "host_ops",
               "snic_ops", "tpRatio", "hostLatUs", "snicLatUs",
               "latCut%");
    std::size_t n = 0;
    const auto *pka = funcs::pkaCalib(&n);
    for (std::size_t i = 0; i < n; ++i) {
        out.printf("%-10s %10.0f %10.0f %8.1f | %9.0f %9.0f %8.1f\n",
                   pka[i].op, pka[i].host_ops_per_s,
                   pka[i].snic_ops_per_s,
                   pka[i].host_ops_per_s / pka[i].snic_ops_per_s,
                   ticksToUs(pka[i].host_latency),
                   ticksToUs(pka[i].snic_latency),
                   100.0 * (1.0 - static_cast<double>(
                                       pka[i].host_latency) /
                                       pka[i].snic_latency));
    }

    banner(out, "Fig. 3: system power and energy efficiency at max TP "
                "(SNIC/host normalized)");
    out.printf("%-8s %8s %8s %8s | %9s %9s %8s\n", "function", "snicW",
               "hostW", "powRatio", "snicEE", "hostEE", "eeRatio");
    double geo = 1.0;
    for (funcs::FunctionId fn : fns) {
        // A function's first row; for REM that is rem-tea.
        const std::size_t i =
            std::find_if(rows.begin(), rows.end(),
                         [fn](const RowSpec &r) { return r.fn == fn; }) -
            rows.begin();
        const RunResult &snic = lat[2 * i];
        const RunResult &host = lat[2 * i + 1];
        out.printf("%-8s %8.1f %8.1f %8.3f | %9.4f %9.4f %8.3f\n",
                   funcs::functionName(fn), snic.system_power_w,
                   host.system_power_w,
                   snic.system_power_w / host.system_power_w,
                   snic.energy_eff, host.energy_eff,
                   snic.energy_eff / host.energy_eff);
        geo *= host.energy_eff / snic.energy_eff;
    }
    out.printf("\nhost EE advantage (geomean over functions): %.1f%%\n",
               100.0 * (std::pow(geo, 1.0 / static_cast<double>(
                                           fns.size())) -
                         1.0));
    out.printf("paper: host ~73%% higher EE on average for "
               "software-only functions\n");
    return 0;
}
