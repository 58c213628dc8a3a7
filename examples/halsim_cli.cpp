/**
 * @file
 * Command-line driver: run any mode/function/traffic combination and
 * print the metrics, without writing code. The Swiss-army knife for
 * exploring the model.
 *
 * All flags are declared through core::ArgRegistrar (DESIGN.md §8,
 * "Parallel sweep harness"), so `--help` lists everything and
 * malformed values exit 2 with a diagnostic, same as every bench
 * binary.
 *
 * Examples:
 *   halsim_cli --mode hal --function nat --rate 80
 *   halsim_cli --mode snic --function rem --ruleset lite --trace hadoop
 *   halsim_cli --mode hal --function count --second crypto --trace cache
 *   halsim_cli --mode hal --function nat --rate 8 --governor on
 *   halsim_cli --mode hal --function nat --rate 60 --slo-p99 300 \
 *              --stats-out stats.json
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/server.hh"
#include "core/sweep.hh"

using namespace halsim;
using namespace halsim::core;

namespace {

std::optional<funcs::FunctionId>
parseFunction(const std::string &name)
{
    for (int i = 0; i < static_cast<int>(funcs::kFunctionCount); ++i) {
        const auto id = static_cast<funcs::FunctionId>(i);
        if (name == funcs::functionName(id))
            return id;
    }
    return std::nullopt;
}

} // namespace

int
main(int argc, char **argv)
{
    ServerConfig cfg;
    double rate = 40.0;
    std::optional<net::TraceKind> trace;
    Tick measure = 200 * kMs;
    Tick warmup = 20 * kMs;
    std::string stats_out;
    SweepOptions power;

    ArgRegistrar reg(argv[0],
                     "Run one server operating point and print the "
                     "paper's metrics.");
    reg.value("--mode", "host|snic|hal|slb|slb-host", "server mode",
              [&](const std::string &m) -> std::string {
                  if (m == "host")
                      cfg.mode = Mode::HostOnly;
                  else if (m == "snic")
                      cfg.mode = Mode::SnicOnly;
                  else if (m == "hal")
                      cfg.mode = Mode::Hal;
                  else if (m == "slb")
                      cfg.mode = Mode::Slb;
                  else if (m == "slb-host")
                      cfg.mode = Mode::HostSlb;
                  else
                      return "unknown mode '" + m + "'";
                  return {};
              });
    reg.value("--function", "NAME",
              "network function (fwd|kvs|count|ema|nat|bm25|knn|bayes|"
              "rem|crypto|comp)",
              [&](const std::string &v) -> std::string {
                  const auto f = parseFunction(v);
                  if (!f)
                      return "unknown function '" + v + "'";
                  cfg.function = *f;
                  return {};
              });
    reg.value("--second", "NAME", "second pipeline stage",
              [&](const std::string &v) -> std::string {
                  const auto f = parseFunction(v);
                  if (!f)
                      return "unknown function '" + v + "'";
                  cfg.pipeline_second = *f;
                  return {};
              });
    reg.value("--rate", "GBPS", "constant offered rate",
              [&](const std::string &v) -> std::string {
                  const auto x = parseNumberArg<double>(v);
                  if (!x || *x <= 0.0)
                      return "needs a positive rate, got '" + v + "'";
                  rate = *x;
                  return {};
              });
    reg.value("--trace", "web|cache|hadoop",
              "datacenter-trace workload instead of a constant rate",
              [&](const std::string &t) -> std::string {
                  if (t == "web")
                      trace = net::TraceKind::Web;
                  else if (t == "cache")
                      trace = net::TraceKind::Cache;
                  else if (t == "hadoop")
                      trace = net::TraceKind::Hadoop;
                  else
                      return "unknown trace '" + t + "'";
                  return {};
              });
    reg.value("--frame", "BYTES", "frame size",
              [&](const std::string &v) -> std::string {
                  const auto x = parseNumberArg<std::size_t>(v);
                  if (!x || *x < 64)
                      return "needs a frame size >= 64, got '" + v + "'";
                  cfg.frame_bytes = *x;
                  return {};
              });
    reg.value("--measure", "MS", "measurement window (milliseconds)",
              [&](const std::string &v) -> std::string {
                  const auto x = parseNumberArg<Tick>(v, kMs);
                  if (!x || *x == 0)
                      return "needs a positive window, got '" + v + "'";
                  measure = *x;
                  return {};
              });
    reg.value("--warmup", "MS", "warmup window (milliseconds)",
              [&](const std::string &v) -> std::string {
                  const auto x = parseNumberArg<Tick>(v, kMs);
                  if (!x)
                      return "needs a non-negative window, got '" + v +
                             "'";
                  warmup = *x;
                  return {};
              });
    reg.value("--seed", "N", "traffic RNG seed",
              [&](const std::string &v) -> std::string {
                  const auto x = parseNumberArg<std::uint64_t>(v);
                  if (!x)
                      return "needs a non-negative seed, got '" + v + "'";
                  cfg.seed = *x;
                  return {};
              });
    reg.value("--split", "token|rr|flow", "HLB splitter discipline",
              [&](const std::string &s) -> std::string {
                  if (s == "token")
                      cfg.split_mode = SplitMode::TokenBucket;
                  else if (s == "rr")
                      cfg.split_mode = SplitMode::RoundRobin;
                  else if (s == "flow")
                      cfg.split_mode = SplitMode::FlowAffinity;
                  else
                      return "unknown split '" + s + "'";
                  return {};
              });
    reg.flag("--dvfs", "enable SNIC DVFS",
             [&] { cfg.power.snic_dvfs.enabled = true; });
    reg.flag("--no-coherence", "disable cross-processor state coherence",
             [&] { cfg.coherent_state = false; });
    reg.value("--slb-cores", "N", "cores reserved for the software LB",
              [&](const std::string &v) -> std::string {
                  const auto x = parseNumberArg<unsigned>(v);
                  if (!x || *x < 1)
                      return "needs a core count >= 1, got '" + v + "'";
                  cfg.slb_cores = *x;
                  return {};
              });
    reg.value("--slb-th", "GBPS", "software-LB forwarding threshold",
              [&](const std::string &v) -> std::string {
                  const auto x = parseNumberArg<double>(v);
                  if (!x || *x <= 0.0)
                      return "needs a positive threshold, got '" + v +
                             "'";
                  cfg.slb_fwd_th_gbps = *x;
                  return {};
              });
    reg.value("--ruleset", "tea|lite", "REM pattern ruleset",
              [&](const std::string &r) -> std::string {
                  if (r == "tea")
                      cfg.rem_ruleset = alg::RulesetKind::Teakettle;
                  else if (r == "lite")
                      cfg.rem_ruleset = alg::RulesetKind::SnortLiterals;
                  else
                      return "unknown ruleset '" + r + "'";
                  return {};
              });
    reg.value("--slo-p99", "US", "arm the SLO monitor at this p99 target",
              [&](const std::string &v) -> std::string {
                  const auto x = parseNumberArg<Tick>(v, kUs);
                  if (!x || *x == 0)
                      return "needs a positive target, got '" + v + "'";
                  cfg.slo.target_p99_us = ticksToUs(*x);
                  return {};
              });
    reg.value("--stats-out", "PATH", "write the stats tree here",
              [&](const std::string &v) -> std::string {
                  stats_out = v;
                  cfg.obs.stats = true;
                  return {};
              });
    registerPowerFlags(reg, power);
    reg.parse(argc, argv);
    applyPowerFlags(power, cfg);

    EventQueue eq;
    std::unique_ptr<ServerSystem> sys;
    try {
        sys = std::make_unique<ServerSystem>(eq, cfg);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }
    const RunResult r =
        trace ? sys->run(net::makeTrace(*trace), warmup, measure, 2 * kMs)
              : sys->run(std::make_unique<net::ConstantRate>(rate), warmup,
                         measure);

    std::printf("mode=%s function=%s%s%s traffic=%s\n",
                modeName(cfg.mode), funcs::functionName(cfg.function),
                cfg.pipeline_second ? "+" : "",
                cfg.pipeline_second
                    ? funcs::functionName(*cfg.pipeline_second)
                    : "",
                trace ? net::traceName(*trace) : "constant");
    std::printf("offered      %8.2f Gbps\n", r.offered_gbps);
    std::printf("delivered    %8.2f Gbps (max window %.2f)\n",
                r.delivered_gbps, r.max_window_gbps);
    std::printf("p99 latency  %8.1f us (mean %.1f)\n", r.p99_us,
                r.mean_us);
    std::printf("system power %8.1f W (dynamic %.1f)\n",
                r.system_power_w, r.dynamic_power_w);
    std::printf("energy eff.  %8.4f Gbps/W\n", r.energy_eff);
    std::printf("loss         %8.2f %%\n", 100.0 * r.lossFraction());
    std::printf("split        %llu snic / %llu host\n",
                static_cast<unsigned long long>(r.snic_frames),
                static_cast<unsigned long long>(r.host_frames));
    if (cfg.mode == Mode::Hal)
        std::printf("final FwdTh  %8.1f Gbps\n", r.final_fwd_th_gbps);
    if (cfg.power.governor.enabled) {
        std::printf("governor     %llu epochs, %llu rebalances "
                    "(%llu migrations), %llu parks / %llu unparks, "
                    "active cores %llu..%llu\n",
                    static_cast<unsigned long long>(r.gov_epochs),
                    static_cast<unsigned long long>(r.gov_rebalances),
                    static_cast<unsigned long long>(r.gov_migrations),
                    static_cast<unsigned long long>(r.gov_parks),
                    static_cast<unsigned long long>(r.gov_unparks),
                    static_cast<unsigned long long>(
                        r.gov_min_active_cores),
                    static_cast<unsigned long long>(
                        r.gov_max_active_cores));
    }

    // --- per-component energy breakdown (measurement window) ---------
    {
        struct Row
        {
            const char *name;
            double j;
        };
        const Row rows[] = {
            {"snic cpu", r.energy_snic_cpu_j},
            {"snic accel", r.energy_snic_accel_j},
            {"host cpu", r.energy_host_cpu_j},
            {"host accel", r.energy_host_accel_j},
            {"hlb/lbp/slb", r.energy_extra_j},
            {"static base", r.energy_static_j},
        };
        std::printf("energy breakdown (window):\n");
        for (const Row &row : rows) {
            if (row.j == 0.0)
                continue;
            std::printf("  %-12s %10.3f J  (%5.1f %%)\n", row.name,
                        row.j,
                        r.energy_total_j > 0.0
                            ? 100.0 * row.j / r.energy_total_j
                            : 0.0);
        }
        std::printf("  %-12s %10.3f J  (%.3e J/req, %.3f J/Gb)\n",
                    "total", r.energy_total_j, r.j_per_request,
                    r.j_per_gb);
    }

    if (cfg.slo.enabled()) {
        std::printf("slo          %llu/%llu epochs violated "
                    "(target p99 %.1f us, worst %.1f us)\n",
                    static_cast<unsigned long long>(
                        r.slo_violation_epochs),
                    static_cast<unsigned long long>(r.slo_epochs),
                    r.slo_target_p99_us, r.slo_worst_p99_us);
    }

    if (!stats_out.empty() && sys->obs() != nullptr) {
        std::ofstream os(stats_out);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_out.c_str());
            return 1;
        }
        sys->obs()->writeStatsJson(os);
        os << "\n";
        std::printf("stats written to %s\n", stats_out.c_str());
    }
    return 0;
}
