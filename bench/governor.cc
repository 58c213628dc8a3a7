/**
 * @file
 * Core-scaling governor evaluation (ROADMAP item 3): diurnal / burst
 * / trough / peak workloads run twice — static core count vs. the
 * RSS++/COREIDLE governor — and compared on energy per bit and tail
 * latency.
 *
 * The paper's platform has a 194 W static floor, so total J/Gb at a
 * 4 Gbps trough is dominated by idle watts no governor can touch; the
 * headline gate is therefore on *dynamic* J/Gb (total minus the
 * static base), where parking poll cores shows up directly. Total
 * J/Gb must still strictly improve, and the governor must not cost
 * tail latency at peak load.
 *
 * Gates (exit 1 on violation; skipped when `--governor` forces both
 * variants to the same setting):
 *  - trough + diurnal: governor total J/Gb < static total J/Gb;
 *  - trough: dynamic J/Gb saving >= 15%;
 *  - trough: the governor actually parked cores;
 *  - peak: governor p99 <= 500 us (the Table-2 SLO band).
 *
 * Deterministic: both rate processes are phase-stepped (no RNG), so
 * `--quick --json` reproduces bench/BENCH_governor_quick.json
 * bit-for-bit and CI gates on drift.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

/** Peak-load tail-latency budget (Table 2's SLO band). */
constexpr double kPeakSloUs = 500.0;

/** Required dynamic-energy saving at the trough. */
constexpr double kMinDynSaving = 0.15;

struct Workload
{
    const char *name;
    std::function<std::unique_ptr<net::RateProcess>()> make_rate;
};

/** Dynamic (non-static) energy per bit: what the governor can move. */
double
dynJPerGb(const RunResult &r)
{
    if (r.energy_total_j <= 0.0)
        return 0.0;
    return r.j_per_gb * (1.0 - r.energy_static_j / r.energy_total_j);
}

} // namespace

int
bench::governor(const SweepOptions &opts, bool quick, Out &out)
{
    const Tick warmup = quick ? 10 * kMs : 20 * kMs;
    const Tick measure = quick ? 60 * kMs : 240 * kMs;
    const Tick resample = 1 * kMs;

    // Phase-stepped deterministic workloads (resampled every 1 ms):
    // a 4 Gbps trough, a 40 ms-period day/night swing, a 20%-duty
    // burst train, and a saturating peak.
    const std::vector<Workload> workloads = {
        {"trough",
         [] { return std::make_unique<net::ConstantRate>(4.0); }},
        {"diurnal",
         [] { return std::make_unique<net::DiurnalRate>(4.0, 70.0, 40); }},
        {"burst",
         [] { return std::make_unique<net::BurstRate>(6.0, 80.0, 20, 4); }},
        {"peak",
         [] { return std::make_unique<net::ConstantRate>(80.0); }},
    };

    std::vector<SweepPoint> points;
    for (const Workload &w : workloads) {
        for (const bool governed : {false, true}) {
            SweepPoint p;
            p.cfg = ServerConfig{};
            p.cfg.power.governor.enabled = governed;
            p.make_rate = w.make_rate;
            p.warmup = warmup;
            p.measure = measure;
            p.resample = resample;
            p.label = std::string(governed ? "gov:" : "static:") + w.name;
            points.push_back(std::move(p));
        }
    }

    const std::vector<RunResult> results = runSweep(points, opts);

    banner(out, "Core-scaling governor vs. static cores (HAL, NAT)");
    out.printf("%-8s | %8s %8s | %8s %8s %7s | %8s %8s %7s | %6s %9s\n",
               "workload", "tp", "p99us", "J/Gb", "J/Gb", "save%",
               "dynJ/Gb", "dynJ/Gb", "save%", "parks", "active");
    out.printf("%-8s | %8s %8s | %8s %8s %7s | %8s %8s %7s | %6s %9s\n",
               "", "gov", "gov", "static", "gov", "", "static", "gov",
               "", "gov", "min..max");

    bool ok = true;
    auto gate = [&ok, &out](bool pass, const char *what) {
        if (!pass) {
            ok = false;
            out.printf("GATE FAILED: %s\n", what);
        }
    };

    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const RunResult &st = results[2 * i];
        const RunResult &gov = results[2 * i + 1];
        const double save =
            st.j_per_gb > 0.0 ? 1.0 - gov.j_per_gb / st.j_per_gb : 0.0;
        const double dyn_st = dynJPerGb(st);
        const double dyn_gov = dynJPerGb(gov);
        const double dyn_save =
            dyn_st > 0.0 ? 1.0 - dyn_gov / dyn_st : 0.0;
        out.printf("%-8s | %8.2f %8.1f | %8.3f %8.3f %6.1f%% | "
                   "%8.4f %8.4f %6.1f%% | %6llu %4llu..%-4llu\n",
                   workloads[i].name, gov.delivered_gbps, gov.p99_us,
                   st.j_per_gb, gov.j_per_gb, 100.0 * save, dyn_st,
                   dyn_gov, 100.0 * dyn_save,
                   static_cast<unsigned long long>(gov.gov_parks),
                   static_cast<unsigned long long>(
                        gov.gov_min_active_cores),
                   static_cast<unsigned long long>(
                        gov.gov_max_active_cores));
    }

    if (opts.governor) {
        out.printf("\n--governor override active: comparison gates "
                   "skipped\n");
        return 0;
    }

    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const std::string name = workloads[i].name;
        const RunResult &st = results[2 * i];
        const RunResult &gov = results[2 * i + 1];
        if (name == "trough" || name == "diurnal") {
            gate(gov.j_per_gb < st.j_per_gb,
                 (name + ": governor must strictly improve total J/Gb")
                     .c_str());
        }
        if (name == "trough") {
            const double dyn_st = dynJPerGb(st);
            const double dyn_gov = dynJPerGb(gov);
            gate(dyn_st > 0.0 &&
                     dyn_gov <= (1.0 - kMinDynSaving) * dyn_st,
                 "trough: dynamic J/Gb saving must be >= 15%");
            gate(gov.gov_parks > 0,
                 "trough: governor must actually park cores");
        }
        if (name == "peak") {
            gate(gov.p99_us <= kPeakSloUs,
                 "peak: governor p99 must stay within the 500 us SLO");
        }
    }

    out.printf("\n%s\n", ok ? "all governor gates passed"
                             : "governor gates FAILED");
    return ok ? 0 : 1;
}
