/**
 * @file
 * Fig. 2 reproduction: maximum throughput and p99 latency of the ten
 * functions on the SNIC processor, normalized to the host processor
 * (MTU frames). The cryptography bars additionally report the PKA
 * micro-operation comparison the paper measures (RSA/DH/DSA ops on
 * QAT vs the BF-2 PKA), and REM reports both rulesets.
 *
 * Paper anchors: host crypto accel 24-115x SNIC; compression host at
 * 46-72% of SNIC; REM tea host +93% TP / -81% p99, REM lite SNIC 19x
 * TP / -94% p99; software functions: SNIC 24-69% lower TP, 1.1-27x
 * higher p99.
 *
 * Runs as two sweeps through the parallel harness (`--threads`,
 * `--json`, `--stats-out`, `--trace`): a saturation pass whose
 * delivered rate is the "max TP" column, then the latency pass at 95%
 * of it (the paper's "packet rate achieving the maximum throughput");
 * artifacts are written for the latency pass only.
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "funcs/calibration.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

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
main(int argc, char **argv)
{
    const SweepOptions opts =
        parseSweepArgs(argc, argv, "fig2_throughput_latency");

    std::vector<RowSpec> rows;
    for (funcs::FunctionId fn : funcs::allFunctions()) {
        if (fn == funcs::FunctionId::Rem)
            continue;   // printed per ruleset below
        rows.push_back({fn, alg::RulesetKind::Teakettle,
                        funcs::functionName(fn)});
    }
    rows.push_back(
        {funcs::FunctionId::Rem, alg::RulesetKind::Teakettle, "rem-tea"});
    rows.push_back({funcs::FunctionId::Rem, alg::RulesetKind::SnortLiterals,
                    "rem-lite"});

    // Phase 1: saturate to find each platform's max throughput.
    LabelledConfigs cfgs;
    for (const RowSpec &spec : rows) {
        cfgs.emplace_back("snic:" + spec.label,
                          configFor(spec, Mode::SnicOnly));
        cfgs.emplace_back("host:" + spec.label,
                          configFor(spec, Mode::HostOnly));
    }
    const std::vector<RunResult> sat = saturate(cfgs, opts);

    // Phase 2: p99 at 95% of each max; writes the requested artifacts.
    const std::vector<RunResult> lat = runSweep(atMaxTp(cfgs, sat), opts);

    banner("Fig. 2: max throughput and p99 latency, SNIC vs host (MTU)");
    std::printf("%-10s %8s %8s %8s | %9s %9s %8s\n", "function",
                "snicGbps", "hostGbps", "tpRatio", "snicP99us",
                "hostP99us", "p99Ratio");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const double snic_tp = sat[2 * i].delivered_gbps;
        const double host_tp = sat[2 * i + 1].delivered_gbps;
        const double snic_p99 = lat[2 * i].p99_us;
        const double host_p99 = lat[2 * i + 1].p99_us;
        std::printf("%-10s %8.2f %8.2f %8.3f | %9.1f %9.1f %8.2f\n",
                    rows[i].label.c_str(), snic_tp, host_tp,
                    snic_tp / host_tp, snic_p99, host_p99,
                    snic_p99 / host_p99);
    }

    banner("Fig. 2 inset: PKA micro-operations (QAT vs BF-2 PKA)");
    std::printf("%-10s %10s %10s %8s | %9s %9s %8s\n", "op", "host_ops",
                "snic_ops", "tpRatio", "hostLatUs", "snicLatUs",
                "latCut%");
    std::size_t n = 0;
    const auto *pka = funcs::pkaCalib(&n);
    for (std::size_t i = 0; i < n; ++i) {
        std::printf("%-10s %10.0f %10.0f %8.1f | %9.0f %9.0f %8.1f\n",
                    pka[i].op, pka[i].host_ops_per_s,
                    pka[i].snic_ops_per_s,
                    pka[i].host_ops_per_s / pka[i].snic_ops_per_s,
                    ticksToUs(pka[i].host_latency),
                    ticksToUs(pka[i].snic_latency),
                    100.0 * (1.0 - static_cast<double>(
                                       pka[i].host_latency) /
                                       pka[i].snic_latency));
    }
    return 0;
}
