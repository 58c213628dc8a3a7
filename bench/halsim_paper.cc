/**
 * @file
 * halsim_paper: regenerate the paper's evaluation in one process —
 * Tables I, II and V, Figs. 2-5 and 8-10, the §VII-C and §VIII costs,
 * the ablations, and the fault, fleet and governor drills.
 *
 *   halsim_paper [--only a,b] [--quick] [--threads N|all] [sweep flags]
 *
 * Each section is one function (bench/<name>.cc). The selected
 * sections run concurrently, each printing into its own buffer, and
 * the buffers go to stdout in paper order, so a section prints the
 * same bytes alone or alongside the others. `--threads N` caps the
 * points simulating at once in the whole process (setParallelBudget());
 * a freed worker goes to the earliest waiting section in paper order
 * (setParallelRank()), so Table II's lock-step phases keep their pace
 * while later sections fill the workers those phases leave idle. The
 * exit status is the first nonzero section status, in paper order.
 */

#include <cstdio>
#include <exception>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "sim/parallel.hh"

using namespace halsim;
using namespace halsim::core;

namespace {

struct Section
{
    const char *name; //!< `--only` name and the artifacts' "bench"
    const char *help;
    bench::SectionFn run;
    bool sweep; //!< writes the documents the artifact flags name
    bool quick; //!< has a `--quick` set
};

/** Every section, in paper order. */
const Section kSections[] = {
    {"table1_capabilities",
     "Table I: host acceleration support for BF-2 functions",
     bench::table1_capabilities, false, false},
    {"fig2_throughput_latency",
     "Figs. 2 and 3: SNIC vs host TP, p99, power and EE at max TP",
     bench::fig2_throughput_latency, true, true},
    {"table2_slo", "Table II: SNIC SLO throughput and EE vs the host",
     bench::table2_slo, true, false},
    {"fig5_slb", "Fig. 5: NAT behind the software load balancer",
     bench::fig5_slb, true, false},
    {"fig8_traces", "Fig. 8: the web, cache and hadoop traces",
     bench::fig8_traces, false, false},
    {"fig9_hal_sweep",
     "Figs. 4 and 9: NAT and REM rate sweeps, host/SNIC/HAL",
     bench::fig9_hal_sweep, true, false},
    {"table5_workloads", "Table V: SNIC/host/HAL on the three traces",
     bench::table5_workloads, true, false},
    {"fig10_bf3_spr", "Fig. 10: BlueField-3 vs Sapphire Rapids CPUs",
     bench::fig10_bf3_spr, true, false},
    {"hlb_costs", "§VII-C: HLB latency, power, area and control traffic",
     bench::hlb_costs, true, false},
    {"ablation_lbp", "ablation: the LBP constants of Algorithm 1",
     bench::ablation_lbp, true, false},
    {"ablation_director", "ablation: the traffic director's split",
     bench::ablation_director, true, false},
    {"ablation_dvfs", "§VIII: SNIC DVFS ablation", bench::ablation_dvfs,
     false, false},
    {"fault_recovery", "fault drill matrix under HAL",
     bench::fault_recovery, true, false},
    {"fleet_drill", "fleet drill: crash/stall/flap/storm scenarios",
     bench::fleet_drill, true, true},
    {"governor", "core-scaling governor vs static cores",
     bench::governor, true, true},
};

constexpr std::size_t kNumSections = std::size(kSections);

std::string
description()
{
    std::string text =
        "Regenerates the paper's tables and figures. Sections, in paper "
        "order\n(--only picks some; --quick alone runs the ones marked "
        "*):\n";
    for (const Section &s : kSections) {
        char line[160];
        std::snprintf(line, sizeof line, "  %c %-24s %s\n",
                      s.quick ? '*' : ' ', s.name, s.help);
        text += line;
    }
    text += "Flags:";
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<bool> chosen(kNumSections, false);
    bool only = false;
    bool quick = false;
    const SweepOptions opts = parseSweepArgs(
        argc, argv, "halsim_paper", &quick, description(),
        [&chosen, &only](ArgRegistrar &reg) {
            reg.value("--only", "LIST",
                      "run only these comma-separated sections",
                      [&chosen, &only](const std::string &v) -> std::string {
                          only = true;
                          std::size_t pos = 0;
                          for (;;) {
                              const std::size_t comma = v.find(',', pos);
                              const std::string name = v.substr(
                                  pos, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - pos);
                              std::size_t k = 0;
                              while (k < kNumSections &&
                                     name != kSections[k].name)
                                  ++k;
                              if (k == kNumSections)
                                  return "unknown section '" + name +
                                         "' (--help lists them)";
                              chosen[k] = true;
                              if (comma == std::string::npos)
                                  return {};
                              pos = comma + 1;
                          }
                      });
        });

    const auto usageError = [&argv](const std::string &msg) {
        std::fprintf(stderr, "%s: %s\n", argv[0], msg.c_str());
        return 2;
    };
    std::vector<std::size_t> picked;
    for (std::size_t k = 0; k < kNumSections; ++k) {
        if (!only)
            chosen[k] = !quick || kSections[k].quick;
        if (!chosen[k])
            continue;
        if (quick && !kSections[k].quick)
            return usageError(std::string("--quick: section '") +
                              kSections[k].name + "' has no quick set");
        picked.push_back(k);
    }
    const bool artifacts = !opts.json_path.empty() ||
                           !opts.stats_path.empty() ||
                           !opts.trace_path.empty() ||
                           !opts.flightrec_path.empty();
    if (artifacts && (picked.size() != 1 || !kSections[picked[0]].sweep))
        return usageError("--json, --stats-out, --trace and --flightrec "
                          "need exactly one sweep section (--only NAME)");

    setParallelBudget(opts.threads == 0 ? hardwareThreads()
                                        : opts.threads);
    std::vector<bench::Out> outs(picked.size());
    std::vector<int> status(picked.size(), 0);
    // A section that throws ends the run after every section joined
    // and printed, as an uncaught exception in main.
    std::vector<std::exception_ptr> errors(picked.size());
    std::vector<std::thread> runners;
    for (std::size_t j = 0; j < picked.size(); ++j) {
        runners.emplace_back([&, j] {
            const Section &s = kSections[picked[j]];
            setParallelRank(static_cast<unsigned>(j));
            SweepOptions section_opts = opts;
            section_opts.bench_name =
                std::string(s.name) + (quick ? "_quick" : "");
            try {
                status[j] = s.run(section_opts, quick, outs[j]);
            } catch (...) {
                errors[j] = std::current_exception();
            }
        });
    }
    int rc = 0;
    for (std::size_t j = 0; j < picked.size(); ++j) {
        runners[j].join();
        std::fwrite(outs[j].text().data(), 1, outs[j].text().size(),
                    stdout);
        std::fflush(stdout);
        if (rc == 0)
            rc = status[j];
    }
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return rc;
}
