/**
 * @file
 * halsim end-to-end benchmark program.
 *
 *   halsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-out FILE] [--scale F]
 *
 * --trace 0 measures the end-to-end metrics: set-up time (median of
 * repeated constructions), then back-to-back runs of the workload for
 * S seconds (median simulated packets per host second), peak RSS, and
 * the simulated p99 and Gbps/W. --trace 1 makes the separate traced
 * run: the workload with obs off, as configured, and with the sampling
 * rate wrapper and benchmark spans, then isolated drives of each layer
 * at the workload's mix; it prints the per-layer metrics and writes the
 * spans as Chrome trace JSON to --trace-out.
 *
 * Every mode checks the run's outputs (packet or attempt ledger, zero
 * past clamps, identical RunResults where they must agree), prints a
 * machine/build stamp, one line per metric, and, last, one JSON object
 * {correct, attempted, failed, metrics}; attempted/failed count output
 * checks. It exits 1 when a check fails and 2 on bad arguments.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hh"
#include "obs/registry.hh"
#include "span_log.hh"
#include "workload.hh"

using namespace perfbench;
using namespace halsim;

namespace {

using Clock = std::chrono::steady_clock;

/** Seed used when none is given, and the one kept back from tuning:
 *  a later performance claim must also hold on the held-out seed. */
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 7;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string trace_out;
    double scale = 1.0;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "halsim_perfbench: %s\nusage: halsim_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--scale F]\nworkloads:",
                 why.c_str());
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v);
            else if (flag == "--trace-out")
                a.trace_out = v;
            else if (flag == "--scale")
                a.scale = std::stod(v);
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + flag);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1) ||
        !(a.scale > 0.0 && a.scale <= 1.0))
        usage("--seconds must be > 0, --trace 0 or 1, --scale in (0, 1]");
    return a;
}

void
printStamp(const Args &a)
{
    std::printf("stamp nproc=%ld compiler=\"%s\" build_type=%s "
                "engine=monolithic threads=1 workload=%s seed=%llu "
                "heldout_seed=%llu default_seed=%llu seconds=%g trace=%d "
                "scale=%g\n",
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, a.workload.c_str(),
                static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(kHeldOutSeed),
                static_cast<unsigned long long>(kDefaultSeed), a.seconds,
                a.trace, a.scale);
}

void
printDigest(const Args &a, const char *run, const core::RunResult &r)
{
    std::printf("digest workload=%s seed=%llu run=%s runresult=%s "
                "simulation=%s p99_us=%s gbps_per_w=%s sent=%llu\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                run, digest(resultJson(r)).c_str(),
                digest(simulationJson(r)).c_str(),
                obs::jsonNumber(r.p99_us).c_str(),
                obs::jsonNumber(r.energy_eff).c_str(),
                static_cast<unsigned long long>(r.sent));
}

/**
 * Peak resident set of this process image, from VmHWM. getrusage's
 * ru_maxrss is not used: Linux carries it across execve, so it would
 * report the launching process's peak when that was larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    throw std::runtime_error("VmHWM not found in /proc/self/status");
}

RunOptions
withObs(ObsVariant v)
{
    RunOptions o;
    o.obs = v;
    return o;
}

void
addChecks(std::vector<Check> &all, const RunOutcome &o)
{
    all.insert(all.end(), o.checks.begin(), o.checks.end());
}

void
checkEqual(std::vector<Check> &all, std::string name, const std::string &a,
           const std::string &b)
{
    all.push_back(Check{std::move(name), a == b,
                        digest(a) + (a == b ? " == " : " != ") + digest(b)});
}

/**
 * Seed of measured repetition @p k. The simulated tail depends on the
 * seed (HAL NAT's p99 moves by up to 25% between seeds through the
 * flow-to-core spread), so repetitions cycle through kSubSeeds seeds
 * derived from --seed and the simulated metrics are their median.
 * Repetition 0 runs --seed itself.
 */
constexpr std::size_t kSubSeeds = 10;

std::uint64_t
subSeed(std::uint64_t seed, std::size_t k)
{
    return seed + 1000003ull * k;
}

std::vector<Metric>
measureEndToEnd(const Workload &w, const Args &a, std::vector<Check> &checks)
{
    addChecks(checks, runOnce(ledgerVariant(w)));

    std::vector<Workload> variants;
    for (std::size_t k = 0; k < kSubSeeds; ++k)
        variants.push_back(
            k == 0 ? w : makeWorkload(w.name, subSeed(a.seed, k), a.scale));

    // Closed loop over whole runs: the next starts when one finishes.
    // A repetition of an already-run seed must reproduce it exactly.
    // Set-up is sampled after every run, so that its median, like the
    // throughput's, spans the whole measurement rather than one moment
    // of the host's load (REM builds its automaton on every one, as a
    // user's run does).
    constexpr std::size_t kSetupsPerRun = 11;
    std::vector<double> setup;
    std::vector<double> pktsPerS;
    std::vector<core::RunResult> results;
    const auto start = Clock::now();
    while (pktsPerS.size() < kSubSeeds || secondsSince(start) < a.seconds) {
        const std::size_t k = pktsPerS.size() % kSubSeeds;
        RunOutcome o = runOnce(variants[k]);
        pktsPerS.push_back(ratio(static_cast<double>(o.frames), o.run_s));
        addChecks(checks, o);
        for (std::size_t i = 0; i < kSetupsPerRun; ++i)
            setup.push_back(setupSecondsOnce(w));
        if (results.size() < kSubSeeds)
            results.push_back(o.result);
        else
            checkEqual(checks, "repeat_run_identical",
                       resultJson(results[k]), resultJson(o.result));
    }
    std::printf("runs workload=%s measured=%zu seeds=%zu setups=%zu "
                "pkts_per_s=",
                a.workload.c_str(), pktsPerS.size(), kSubSeeds, setup.size());
    for (std::size_t i = 0; i < pktsPerS.size(); ++i)
        std::printf("%s%.0f", i ? "," : "", pktsPerS[i]);
    std::printf("\n");
    printDigest(a, "measured", results[0]);

    std::vector<double> p99, eff;
    for (const core::RunResult &r : results) {
        p99.push_back(r.p99_us);
        eff.push_back(r.energy_eff);
    }
    return {
        {"sim_pkts_per_s", median(pktsPerS), "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_p99_us", median(p99), "us"},
        {"sim_gbps_per_w", median(eff), "Gbps/W"},
    };
}

std::vector<Metric>
measureLayers(const Workload &w, const Args &a, std::vector<Check> &checks)
{
    SpanLog log;
    const SpanLog::Id root = log.begin("workload:" + w.name);
    {
        ScopedSpan s(log, "setup", root);
        setupSecondsOnce(w);
    }

    const obs::ObsConfig &obsCfg =
        w.kind == SystemKind::Fleet ? w.fleet.obs : w.server.obs;
    std::vector<double> wallMeasured, wallOff, wallOn, wallTraced;
    RunOutcome measured, obsOff, obsOn, tr;

    // The traced run: obs on plus the sampling wrapper, one instant
    // span per generator epoch.
    SpanLog::Id tracedSpan = SpanLog::kRoot;
    RunOptions traced;
    traced.obs = ObsVariant::StatsOn;
    traced.sample = true;
    traced.onSample = [&log, &tracedSpan](const QueueSample &s) {
        log.instant("sample", tracedSpan,
                    {{"now_us", static_cast<double>(s.now) /
                                    static_cast<double>(kUs)},
                     {"size", static_cast<double>(s.size)},
                     {"heap_slots", static_cast<double>(s.heap_slots)},
                     {"executed", static_cast<double>(s.executed)}});
    };

    addChecks(checks, runOnce(ledgerVariant(w)));

    // Each round runs the measured configuration, the same run with
    // obs off and with the stats registry on (when the workload
    // already has obs on, the measured run is the obs-on one and vice
    // versa), and the traced run. The obs and tracing costs compare
    // median walls over the rounds; outputs come from the first.
    constexpr int kRounds = 3;
    for (int round = 0; round < kRounds; ++round) {
        const auto timedRun = [&](const char *name, const RunOptions &opt) {
            tracedSpan = log.begin(std::string("run.") + name, root);
            RunOutcome o = runOnce(w, opt);
            log.end(tracedSpan);
            addChecks(checks, o);
            if (round == 0)
                printDigest(a, name, o.result);
            return o;
        };
        RunOutcome m = timedRun("measured", RunOptions{});
        RunOutcome off =
            obsCfg.enabled() ? timedRun("obs_off", withObs(ObsVariant::Off))
                             : m;
        RunOutcome on = obsCfg.stats
                            ? m
                            : timedRun("obs_on", withObs(ObsVariant::StatsOn));
        RunOutcome t = timedRun("traced", traced);
        wallMeasured.push_back(m.run_s);
        wallOff.push_back(off.run_s);
        wallOn.push_back(on.run_s);
        wallTraced.push_back(t.run_s);
        if (round == 0) {
            measured = std::move(m);
            obsOff = std::move(off);
            obsOn = std::move(on);
            tr = std::move(t);
        }
    }

    checkEqual(checks, "traced_equals_measured", resultJson(measured.result),
               resultJson(tr.result));
    checkEqual(checks, "obs_on_equals_obs_off",
               simulationJson(obsOff.result), simulationJson(obsOn.result));

    // Per-layer counts (deterministic) from the measured run; the
    // epoch-sampled ones from the traced run.
    const core::RunResult &r = measured.result;
    const double frames = static_cast<double>(measured.frames);
    double pending = 0.0, tombstones = 0.0;
    for (const QueueSample &s : tr.samples) {
        pending += static_cast<double>(s.size);
        tombstones += ratio(static_cast<double>(s.heap_slots - s.size),
                            static_cast<double>(s.heap_slots));
    }
    const double nSamples = static_cast<double>(tr.samples.size());
    const bool server = w.kind == SystemKind::Server;

    LayerMix mix;
    mix.pending_mean = ratio(pending, nSamples);
    mix.tombstone_frac = ratio(tombstones, nSamples);
    mix.makeRate = w.makeRate;
    mix.frame_bytes = w.frameBytes();
    mix.host_share = ratio(static_cast<double>(r.host_frames),
                           static_cast<double>(r.snic_frames + r.host_frames));
    mix.function = server ? w.server.function : funcs::FunctionId::DpdkFwd;
    mix.coherent = measured.coherence_accesses > 0;
    mix.backends = w.fleet.backends;
    mix.vnodes = w.fleet.frontend.vnodes;
    mix.flows = w.fleet.client.flows;
    mix.seed = a.seed;

    const double budget = std::clamp(a.seconds * 0.04, 0.05, 1.0);
    const auto drive = [&](const char *name, auto fn) {
        ScopedSpan s(log, std::string("layer.") + name, root);
        return fn(mix, budget);
    };
    const double simNs = drive("sim", simNsPerEvent);
    const double netNs = drive("net", netNsPerPkt);
    const double nicNs = drive("nic", nicNsPerPkt);
    const double funcsNs = drive("funcs", funcsNsPerPkt);
    const double cohNs = drive("coherence", coherenceNsPerAccess);
    const double obsNs = drive("obs", obsNsPerRecord);
    const double fleetNs = drive("fleet", fleetNsPerReq);
    log.end(root);

    const double eventsPerPkt = ratio(static_cast<double>(measured.events),
                                      frames);
    const double accessesPerPkt =
        ratio(static_cast<double>(measured.coherence_accesses), frames);
    const double recordsPerPkt = ratio(
        static_cast<double>(measured.obs_records), static_cast<double>(r.sent));

    // Host ns each layer costs per client frame: its isolated cost
    // times how often a frame uses it. Every server frame crosses the
    // generator/link, the eSwitch path and one NF call; every frame is
    // sampled once into the client latency histogram.
    const std::vector<std::pair<std::string, double>> perFrame = {
        {"sim", simNs * eventsPerPkt},
        {"net", netNs},
        {"nic", server ? nicNs : 0.0},
        {"funcs", server ? funcsNs : 0.0},
        {"coherence", cohNs * accessesPerPkt},
        {"obs", obsNs * (recordsPerPkt + 1.0)},
        {"fleet", server ? 0.0 : fleetNs},
    };
    const double e2eNs = ratio(median(wallMeasured) * 1e9, frames);
    double layerSum = 0.0;
    for (const auto &[_, ns] : perFrame)
        layerSum += ns;
    auto ranked = perFrame;
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &x, const auto &y) { return x.second > y.second; });
    std::printf("layers workload=%s e2e_ns_per_frame=%.1f ranking:",
                a.workload.c_str(), e2eNs);
    for (const auto &[name, ns] : ranked)
        std::printf(" %s=%.1f", name.c_str(), ns);
    std::printf("\n");

    const double offS = median(wallOff);
    const double onS = median(wallOn);

    if (!a.trace_out.empty()) {
        std::ofstream os(a.trace_out);
        log.writeChrome(os,
                        {{"seed", static_cast<double>(a.seed)},
                         {"nproc", static_cast<double>(
                                       sysconf(_SC_NPROCESSORS_ONLN))}},
                        {{"workload", w.name},
                         {"compiler", PERFBENCH_COMPILER},
                         {"build_type", PERFBENCH_BUILD_TYPE}});
        if (!os)
            throw std::runtime_error("cannot write " + a.trace_out);
        std::printf("trace written=%s spans_samples=%zu\n",
                    a.trace_out.c_str(), tr.samples.size());
    }

    return {
        {"sim.events_per_pkt", eventsPerPkt, "count"},
        {"sim.pending_mean", mix.pending_mean, "count"},
        {"sim.tombstone_frac", mix.tombstone_frac, "fraction"},
        {"sim.ns_per_event", simNs, "ns"},
        {"net.ns_per_pkt", netNs, "ns"},
        {"nic.ns_per_pkt", nicNs, "ns"},
        {"nic.ring_drops", static_cast<double>(measured.ring_drops), "count"},
        {"proc.max_ring_occupancy",
         static_cast<double>(tr.max_ring_occupancy), "count"},
        {"proc.gov_parks", static_cast<double>(r.gov_parks), "count"},
        {"proc.gov_unparks", static_cast<double>(r.gov_unparks), "count"},
        {"funcs.ns_per_pkt", funcsNs, "ns"},
        {"coherence.accesses_per_pkt", accessesPerPkt, "count"},
        {"coherence.remote_per_access",
         ratio(static_cast<double>(measured.coherence_remote),
               static_cast<double>(measured.coherence_accesses)),
         "fraction"},
        {"coherence.ns_per_access", cohNs, "ns"},
        {"core.host_share", mix.host_share, "fraction"},
        {"core.lbp_adjustments", static_cast<double>(measured.lbp_adjustments),
         "count"},
        {"obs.records_per_pkt", recordsPerPkt, "count"},
        {"obs.ns_per_record", obsNs, "ns"},
        {"obs.cost_frac", ratio(onS - offS, onS), "fraction"},
        {"fleet.retries_per_req",
         ratio(static_cast<double>(measured.retries),
               static_cast<double>(measured.requests)),
         "count"},
        {"fleet.ns_per_req", fleetNs, "ns"},
        {"layers.coverage", ratio(layerSum, e2eNs), "fraction"},
        {"trace.overhead_frac", ratio(median(wallTraced) - onS, onS),
         "fraction"},
    };
}

void
printResult(const std::vector<Metric> &metrics,
            const std::vector<Check> &checks)
{
    std::size_t failed = 0;
    for (const Check &c : checks) {
        if (!c.ok) {
            ++failed;
            std::printf("check FAILED %s: %s\n", c.name.c_str(),
                        c.detail.c_str());
        }
    }
    std::printf("checks attempted=%zu failed=%zu check_fail_frac=%s\n",
                checks.size(), failed,
                obs::jsonNumber(ratio(static_cast<double>(failed),
                                      static_cast<double>(checks.size())))
                    .c_str());
    for (const Metric &m : metrics)
        std::printf("metric %s %s %s\n", m.name.c_str(),
                    obs::jsonNumber(m.value).c_str(), m.unit.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false", checks.size(), failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    obs::jsonNumber(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    printStamp(a);
    try {
        const Workload w = makeWorkload(a.workload, a.seed, a.scale);
        std::vector<Check> checks;
        const std::vector<Metric> metrics =
            a.trace ? measureLayers(w, a, checks)
                    : measureEndToEnd(w, a, checks);
        printResult(metrics, checks);
        const bool ok = std::all_of(checks.begin(), checks.end(),
                                    [](const Check &c) { return c.ok; });
        return ok ? 0 : 1;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "halsim_perfbench: %s\n", e.what());
        return 2;
    }
}
