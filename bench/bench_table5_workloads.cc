/**
 * @file
 * Table V reproduction: max/avg throughput, p99 latency, and average
 * system power of SNIC-only, Host-only, and HAL across the three
 * datacenter traces, for the six single functions (KNN, NAT, Count,
 * EMA, REM, crypto) and the four two-stage pipelines.
 *
 * The stateful functions (Count, EMA) run on the CXL-SNIC emulation
 * with coherent shared state (§V-C). All 94 runs, the last four the
 * §VII-B methodology comparison (coherent vs ignore-correctness
 * stateless-style run), are one sweep (`--threads`, `--json`, ...).
 *
 * Paper headline: HAL gives ~8-13% higher max throughput than the
 * host, 64-94% lower p99 than the SNIC, and 24-35% higher energy
 * efficiency than the host, across traces.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

struct Entry
{
    std::string label;
    funcs::FunctionId first;
    std::optional<funcs::FunctionId> second;
};

std::vector<Entry>
tableVEntries()
{
    std::vector<Entry> entries;
    for (funcs::FunctionId fn : funcs::tableVFunctions())
        entries.push_back({funcs::functionName(fn), fn, std::nullopt});
    for (const auto &[a, b] : funcs::tableVPipelines()) {
        entries.push_back({std::string(funcs::functionName(a)) + "+" +
                               funcs::functionName(b),
                           a, b});
    }
    return entries;
}

} // namespace

int
main(int argc, char **argv)
{
    const SweepOptions opts = parseSweepArgs(
        argc, argv, "table5_workloads", nullptr,
        "Table V: SNIC/host/HAL on the web, cache and hadoop traces.");

    const net::TraceKind traces[] = {net::TraceKind::Web,
                                     net::TraceKind::Cache,
                                     net::TraceKind::Hadoop};
    const funcs::FunctionId stateful[] = {funcs::FunctionId::Count,
                                          funcs::FunctionId::Ema};

    // 90 Table V points, then the four coherence points: 20 ms warm-up
    // and 600 ms of trace, resampled every 1 ms.
    std::vector<SweepPoint> points;
    for (net::TraceKind trace : traces) {
        for (const Entry &e : tableVEntries()) {
            for (Mode mode : {Mode::SnicOnly, Mode::HostOnly, Mode::Hal}) {
                ServerConfig cfg;
                cfg.mode = mode;
                cfg.function = e.first;
                cfg.pipeline_second = e.second;
                points.push_back(
                    {.cfg = cfg, .trace = trace, .measure = 600 * kMs,
                     .label = std::string(net::traceName(trace)) + ":" +
                              modeName(mode) + ":" + e.label});
            }
        }
    }
    for (funcs::FunctionId fn : stateful) {
        ServerConfig cfg;
        cfg.mode = Mode::Hal;
        cfg.function = fn;
        for (bool coherent : {true, false}) {
            cfg.coherent_state = coherent;
            points.push_back(
                {.cfg = cfg, .trace = net::TraceKind::Hadoop,
                 .measure = 600 * kMs,
                 .label = std::string("coherence:") +
                          funcs::functionName(fn) +
                          (coherent ? ":on" : ":off")});
        }
    }
    const std::vector<RunResult> results = runSweep(points, opts);
    const RunResult *next = results.data();

    for (net::TraceKind trace : traces) {
        banner(std::string("Table V: workload ") + net::traceName(trace));
        std::printf("%-14s |", "function");
        for (const char *m : {"snic", "host", "hal"})
            std::printf(" %s: %5s(%5s) %8s %6s |", m, "max", "avg",
                        "p99us", "avgW");
        std::printf("\n");

        // Aggregates for the headline ratios.
        double ee_gain = 1.0, p99_cut = 1.0, max_gain = 1.0;
        int rows = 0;

        for (const Entry &e : tableVEntries()) {
            std::printf("%-14s |", e.label.c_str());
            const RunResult *res = next;
            next += 3;
            for (const RunResult *r = res; r != next; ++r)
                std::printf(" %11.1f(%5.1f) %8.1f %6.1f |",
                            r->max_window_gbps, r->delivered_gbps,
                            r->p99_us, r->system_power_w);
            std::printf("\n");
            const auto &snic = res[0];
            const auto &host = res[1];
            const auto &hal = res[2];
            ee_gain *= hal.energy_eff / host.energy_eff;
            p99_cut *= hal.p99_us / snic.p99_us;
            max_gain *= hal.max_window_gbps / host.max_window_gbps;
            ++rows;
        }

        std::printf(
            "\n[%s] HAL vs host: max TP %+.1f%%, EE %+.1f%%; "
            "HAL vs snic: p99 %+.1f%% (geomeans)\n",
            net::traceName(trace),
            100.0 * (std::pow(max_gain, 1.0 / rows) - 1.0),
            100.0 * (std::pow(ee_gain, 1.0 / rows) - 1.0),
            100.0 * (std::pow(p99_cut, 1.0 / rows) - 1.0));
    }

    banner("§VII-B methodology: coherent vs stateless-style run "
           "(Count/EMA on hadoop)");
    for (funcs::FunctionId fn : stateful) {
        const RunResult &with = *next++;
        const RunResult &without = *next++;
        std::printf("%-6s coherent: tp %5.1f p99 %7.1f | stateless: "
                    "tp %5.1f p99 %7.1f | dTP %+.2f%% dP99 %+.2f%%\n",
                    funcs::functionName(fn), with.delivered_gbps,
                    with.p99_us, without.delivered_gbps, without.p99_us,
                    100.0 * (with.delivered_gbps / without.delivered_gbps -
                             1.0),
                    100.0 * (with.p99_us / without.p99_us - 1.0));
    }
    std::printf("paper: 0.3-0.4%% lower max TP, 1.7-3.4%% higher "
                "p99 with coherence\n");
    std::printf("\npaper headline: HAL +31%% EE, +10%% TP vs host; p99 "
                "64-94%% below SNIC\n");
    return 0;
}
