/**
 * @file
 * Table II reproduction: the SLO throughput of the SNIC processor
 * (max rate it sustains without inflating p99) and the system-wide
 * energy efficiency of the SNIC processor at that point, normalized
 * to the host processor at the same rate.
 *
 * Paper anchors (SLO Gbps / EE ratio): KVS 3/1.19, Count 58/1.41,
 * EMA 6/1.17, NAT 41/1.31, BM25 1/1.18, KNN 7/1.17, Bayes 0.1/1.14,
 * REM 30/1.38, Crypto 28/1.33, Comp 43/1.55.
 *
 * The ten functions are bisected in lock-step, one sweep per phase;
 * only the final SNIC/host EE sweep writes artifacts (`--json`, ...).
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

int
bench::table2_slo(const SweepOptions &opts, bool, Out &out)
{
    banner(out, "Table II: SNIC SLO throughput and normalized EE");
    out.printf("%-8s %10s %10s | %8s %8s %8s\n", "function", "sloGbps",
               "paperSLO", "snicEE", "hostEE", "EEratio");

    const struct
    {
        funcs::FunctionId fn;
        double paper_slo;
        double paper_ee;
    } paper[] = {
        {funcs::FunctionId::Kvs, 3.0, 1.19},
        {funcs::FunctionId::Count, 58.0, 1.41},
        {funcs::FunctionId::Ema, 6.0, 1.17},
        {funcs::FunctionId::Nat, 41.0, 1.31},
        {funcs::FunctionId::Bm25, 1.0, 1.18},
        {funcs::FunctionId::Knn, 7.0, 1.17},
        {funcs::FunctionId::Bayes, 0.1, 1.14},
        {funcs::FunctionId::Rem, 30.0, 1.38},
        {funcs::FunctionId::Crypto, 28.0, 1.33},
        {funcs::FunctionId::Compress, 43.0, 1.55},
    };

    // One lock-step phase: each function's SNIC at its own rate.
    auto snicAt = [&](const std::vector<double> &rates,
                      const std::string &phase) {
        std::vector<SweepPoint> points;
        for (std::size_t i = 0; i < rates.size(); ++i)
            points.push_back(point(ServerConfig::snicBaseline(paper[i].fn),
                                   rates[i], 10 * kMs, 50 * kMs));
        return runSweep(points, phaseOptions(opts, phase));
    };

    // Find the SNIC's max sustainable rate, then walk down until p99
    // stops inflating: the knee of the latency curve.
    LabelledConfigs sat_cfgs;
    for (const auto &row : paper)
        sat_cfgs.emplace_back(std::string("snic:") +
                                  funcs::functionName(row.fn),
                              ServerConfig::snicBaseline(row.fn));
    std::vector<double> base_rates, lo, hi;
    for (const RunResult &sat : saturate(sat_cfgs, opts, 50 * kMs)) {
        const double max_tp = sat.delivered_gbps;
        base_rates.push_back(std::max(0.03, max_tp * 0.3));
        lo.push_back(max_tp * 0.3);
        hi.push_back(std::min(max_tp * 1.05, 100.0));
    }

    // Baseline p99 at 30% load; SLO = highest rate with p99 under 3x
    // that baseline (bisection).
    const std::vector<RunResult> base = snicAt(base_rates, "baseline");
    for (int it = 0; it < 7; ++it) {
        std::vector<double> mid(lo.size());
        for (std::size_t i = 0; i < mid.size(); ++i)
            mid[i] = 0.5 * (lo[i] + hi[i]);
        const std::vector<RunResult> at_mid = snicAt(mid, "bisect");
        for (std::size_t i = 0; i < mid.size(); ++i) {
            if (at_mid[i].p99_us <= 3.0 * std::max(base[i].p99_us, 1.0))
                lo[i] = mid[i];
            else
                hi[i] = mid[i];
        }
    }
    const std::vector<double> &slo = lo;

    // EE of both processors at the SLO point (the artifact sweep).
    std::vector<SweepPoint> points;
    for (std::size_t i = 0; i < slo.size(); ++i) {
        const std::string fn = funcs::functionName(paper[i].fn);
        points.push_back(point(ServerConfig::snicBaseline(paper[i].fn),
                               slo[i], 10 * kMs, 50 * kMs, "snic:" + fn));
        points.push_back(point(ServerConfig::hostBaseline(paper[i].fn),
                               slo[i], 10 * kMs, 50 * kMs, "host:" + fn));
    }
    const std::vector<RunResult> ee = runSweep(points, opts);

    for (std::size_t i = 0; i < slo.size(); ++i) {
        const RunResult &snic = ee[2 * i];
        const RunResult &host = ee[2 * i + 1];
        out.printf("%-8s %10.2f %10.2f | %8.4f %8.4f %8.2f   "
                   "(paper %.2f)\n",
                   funcs::functionName(paper[i].fn), slo[i],
                   paper[i].paper_slo, snic.energy_eff, host.energy_eff,
                   snic.energy_eff / host.energy_eff, paper[i].paper_ee);
    }
    return 0;
}
