/**
 * @file
 * §VII-C reproduction: HLB hardware, latency, power, and bandwidth
 * costs.
 *
 * Paper anchors: 13,861 LUTs (1.1% of a U280, 16.7% of a Corundum
 * NIC); +800 ns DPDK round-trip (8.3%), 365 ns of it from the
 * transceiver+MAC; <0.1 W; negligible LBP->FPGA control bandwidth.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/parallel.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

int
bench::hlb_costs(const SweepOptions &opts, bool, Out &out)
{
    banner(out, "§VII-C: HLB cost accounting");

    // Latency cost: DPDK forwarding round trip with and without HAL
    // in the path, at a low rate where queueing is negligible.
    ServerConfig base;
    base.function = funcs::FunctionId::DpdkFwd;
    base.mode = Mode::SnicOnly;
    std::vector<SweepPoint> pair{
        point(base, 5.0, 10 * kMs, 50 * kMs, "dpdk:snic")};
    base.mode = Mode::Hal;
    pair.push_back(point(base, 5.0, 10 * kMs, 50 * kMs, "dpdk:hal"));
    const auto dpdk = runSweep(pair, opts);
    const RunResult &without = dpdk[0], &with = dpdk[1];

    const double added_us = with.mean_us - without.mean_us;
    out.printf("DPDK RTT without HLB: %7.2f us (mean), %7.2f us (p99)\n",
               without.mean_us, without.p99_us);
    out.printf("DPDK RTT with    HLB: %7.2f us (mean), %7.2f us (p99)\n",
               with.mean_us, with.p99_us);
    out.printf("added latency: %.0f ns (%.1f%%)   [paper: 800 ns, "
               "8.3%%, 365 ns of it transceiver+MAC]\n",
               added_us * 1000.0,
               100.0 * added_us / without.mean_us);

    // Power cost.
    out.printf("\nHLB power: %.2f W   [paper: <0.1 W from Vivado; an "
               "ASIC would be ~14x lower still]\n",
               kHlbPowerW);

    // Hardware cost (static, from the paper's Vivado report).
    out.printf("HLB area:  13861 LUTs = 1.1%% of U280, 16.7%% of a "
               "Corundum NIC (paper report)\n");

    // Control-plane bandwidth: LBP -> FPGA threshold updates (on
    // ServerSystem directly, not runSweep: it reads sys.lbp() after
    // run(); through parallelFor, so it counts against --threads).
    ServerConfig hal;
    hal.mode = Mode::Hal;
    hal.function = funcs::FunctionId::Nat;
    RunResult r;
    double updates_per_s = 0.0;
    parallelFor(1, 1, [&](std::size_t) {
        EventQueue eq;
        ServerSystem sys(eq, hal);
        r = sys.run(net::makeTrace(net::TraceKind::Hadoop), 20 * kMs,
                    400 * kMs, 2 * kMs);
        const auto *policy = sys.lbp();
        updates_per_s = static_cast<double>(policy->adjustmentsUp() +
                                            policy->adjustmentsDown()) /
                        ticksToSeconds(400 * kMs);
    });
    // Each update is one small control frame (~64 B).
    out.printf("\nLBP control traffic under hadoop: %.0f updates/s = "
               "%.1f kbit/s of the 100 Gbps link (%.6f%%)\n",
               updates_per_s, updates_per_s * 64 * 8 / 1000.0,
               updates_per_s * 64 * 8 / 100e9 * 100.0);
    out.printf("(delivered %.1f Gbps with final FwdTh %.1f)\n",
               r.delivered_gbps, r.final_fwd_th_gbps);
    return 0;
}
