#include "workload.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/span.hh"

namespace perfbench {

using namespace halsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Extra simulated time the ledger run drains after run() returns. */
constexpr Tick kLedgerDrain = 100 * kMs;

Tick
scaled(Tick t, double scale)
{
    return std::max<Tick>(1 * kMs, static_cast<Tick>(
                                       static_cast<double>(t) * scale));
}

obs::ObsConfig
applyObs(obs::ObsConfig cfg, ObsVariant v)
{
    switch (v) {
      case ObsVariant::AsConfigured:
        break;
      case ObsVariant::Off:
        cfg = obs::ObsConfig{};
        break;
      case ObsVariant::StatsOn:
        cfg.stats = true;
        break;
    }
    return cfg;
}

void
addCheck(RunOutcome &out, std::string name, std::uint64_t got,
         std::uint64_t want)
{
    Check c;
    c.name = std::move(name);
    c.ok = got == want;
    c.detail = std::to_string(got) + (c.ok ? " == " : " != ") +
               std::to_string(want);
    out.checks.push_back(std::move(c));
}

std::uint64_t
obsRecords(const obs::Observability *o)
{
    if (o == nullptr)
        return 0;
    std::uint64_t n = 0;
    if (o->tracer() != nullptr)
        n += o->tracer()->recorded();
    if (o->spans() != nullptr)
        n += o->spans()->recorded();
    if (o->flightRecorder() != nullptr)
        n += o->flightRecorder()->recorded();
    return n;
}

std::unique_ptr<net::RateProcess>
wrapRate(const Workload &w, const RunOptions &opt, const EventQueue &eq,
         RunOutcome &out, std::function<std::uint32_t()> occupancy)
{
    auto rate = w.makeRate();
    if (!opt.sample)
        return rate;
    return std::make_unique<SampledRate>(
        std::move(rate), eq,
        [&out, &opt, occupancy = std::move(occupancy)](
            const QueueSample &s) {
            out.samples.push_back(s);
            out.max_ring_occupancy =
                std::max(out.max_ring_occupancy, occupancy());
            if (opt.onSample)
                opt.onSample(s);
        });
}

void
runServer(const Workload &w, const RunOptions &opt, RunOutcome &out)
{
    core::ServerConfig cfg = w.server;
    cfg.obs = applyObs(cfg.obs, opt.obs);

    EventQueue eq;
    core::ServerSystem sys(eq, cfg);
    proc::Processor *snic = sys.snicProcessor();
    proc::Processor *host = sys.hostProcessor();
    auto rate = wrapRate(w, opt, eq, out, [snic, host] {
        return std::max(snic != nullptr ? snic->maxRingOccupancy() : 0u,
                        host != nullptr ? host->maxRingOccupancy() : 0u);
    });

    const auto t0 = Clock::now();
    out.result = sys.run(std::move(rate), w.warmup, w.measure);
    out.run_s = secondsSince(t0);

    const net::Link &in = *sys.clientLink();
    const net::Link &back = *sys.returnLink();
    out.frames = in.deliveredFrames() + in.drops() + in.faultDrops();
    out.events = eq.executed();
    out.ring_drops = (snic != nullptr ? snic->drops() : 0) +
                     (host != nullptr ? host->drops() : 0);
    if (const core::LoadBalancingPolicy *lbp = sys.lbp(); lbp != nullptr)
        out.lbp_adjustments = lbp->adjustmentsUp() + lbp->adjustmentsDown();
    if (const coherence::CoherenceDomain *d = sys.domain(); d != nullptr) {
        out.coherence_accesses = d->stats().accesses;
        out.coherence_remote = d->stats().remoteTransfers;
    }
    out.obs_records = obsRecords(sys.obs());

    // Packet ledger after the drain: every frame the generator emitted
    // came back as a response or was dropped somewhere on the way.
    // Processor drop counters restart at the warmup boundary, so the
    // ledger closes only on a run without warmup (ledgerVariant()).
    // run() drains for 10 ms; a backlog from an overloaded start can
    // outlast that, so the queue runs on for another 100 ms first.
    if (w.warmup == 0) {
        eq.runUntil(eq.now() + kLedgerDrain);
        std::uint64_t dropped = in.drops() + in.faultDrops() +
                                back.drops() + back.faultDrops();
        dropped += (snic != nullptr ? snic->drops() : 0) +
                   (host != nullptr ? host->drops() : 0);
        if (const nic::ESwitch *sw = sys.eswitch(); sw != nullptr)
            dropped += sw->unrouted() + sw->blackholed();
        addCheck(out, "server_ledger",
                 in.deliveredFrames() + in.drops() + in.faultDrops(),
                 back.deliveredFrames() + dropped);
    }
    addCheck(out, "past_clamps", out.result.past_clamps, 0);
}

void
runFleet(const Workload &w, const RunOptions &opt, RunOutcome &out)
{
    fleet::FleetConfig cfg = w.fleet;
    cfg.obs = applyObs(cfg.obs, opt.obs);

    EventQueue eq;
    fleet::FleetSystem sys(eq, cfg);
    auto rate = wrapRate(w, opt, eq, out, [&sys] {
        std::uint32_t occ = 0;
        for (unsigned i = 0; i < sys.nBackends(); ++i)
            occ = std::max(occ, sys.backend(i).occupancy());
        return occ;
    });

    const auto t0 = Clock::now();
    out.result = sys.run(std::move(rate), w.warmup, w.measure);
    out.run_s = secondsSince(t0);

    fleet::FleetClient &client = sys.client();
    out.frames = client.sends();
    out.events = eq.executed();
    out.requests = client.uniqueRequests();
    out.retries = client.retries();
    std::uint64_t losses = sys.frontend().unroutableDrops();
    for (unsigned i = 0; i < sys.nBackends(); ++i) {
        out.ring_drops += sys.backend(i).ringDrops();
        losses += sys.backend(i).losses();
    }
    out.obs_records = obsRecords(sys.obs());

    // Attempt ledger, drained to quiescence: every send completed, was
    // suppressed as a duplicate, or was lost with a reason.
    addCheck(out, "fleet_attempt_ledger", client.sends(),
             client.completions() + client.duplicates() + losses);
    addCheck(out, "fleet_attempts_sum",
             static_cast<std::uint64_t>(client.attempts().sum()),
             client.sends());
    addCheck(out, "fleet_outstanding", client.outstanding(), 0);
    addCheck(out, "past_clamps", out.result.past_clamps, 0);
}

} // namespace

std::size_t
Workload::frameBytes() const
{
    return kind == SystemKind::Fleet ? fleet.client.frame_bytes
                                     : server.frame_bytes;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "hal_nat_60g", "hal_rem_40g", "hal_kvs_diurnal", "fleet_crash"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, double scale)
{
    Workload w;
    w.name = name;
    if (name == "hal_nat_60g") {
        // Engine-bound: MTU NAT with a live HLB split, obs off.
        w.server = core::ServerConfig::halDefault(funcs::FunctionId::Nat);
        w.makeRate = [] { return std::make_unique<net::ConstantRate>(60.0); };
        w.warmup = 20 * kMs;
        w.measure = 300 * kMs;
    } else if (name == "hal_rem_40g") {
        // NF-bound: Aho-Corasick matching dominates host time.
        w.server = core::ServerConfig::halDefault(funcs::FunctionId::Rem);
        w.server.rem_ruleset = alg::RulesetKind::SnortLiterals;
        w.makeRate = [] { return std::make_unique<net::ConstantRate>(40.0); };
        w.warmup = 20 * kMs;
        w.measure = 100 * kMs;
    } else if (name == "hal_kvs_diurnal") {
        // Stateful and self-adjusting: coherence, governor, SLO
        // monitor and packet tracer all active.
        w.server = core::ServerConfig::halDefault(funcs::FunctionId::Kvs);
        w.server.power.governor.enabled = true;
        w.server.slo.target_p99_us = 2000.0;
        w.server.obs.stats = true;
        w.server.obs.trace = true;
        w.makeRate = [] {
            return std::make_unique<net::DiurnalRate>(1.0, 11.0, 40);
        };
        w.warmup = 20 * kMs;
        w.measure = 1600 * kMs;
    } else if (name == "fleet_crash") {
        // Timer churn: per-attempt timeouts, retries after backend 1
        // crashes for good mid-window; spans and recorder on.
        w.kind = SystemKind::Fleet;
        w.fleet.backends = 4;
        w.fleet.client.retry.max_retries = 5;
        w.fleet.obs.stats = true;
        w.fleet.obs.spans = true;
        w.fleet.obs.flightrec = true;
        w.fleet.obs.fr_armed = (1u << obs::kFrTriggerKinds) - 1;
        w.makeRate = [] { return std::make_unique<net::ConstantRate>(24.0); };
        w.warmup = 10 * kMs;
        w.measure = 600 * kMs;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.warmup = scaled(w.warmup, scale);
    w.measure = scaled(w.measure, scale);
    if (w.kind == SystemKind::Fleet) {
        w.fleet.seed = seed;
        w.fleet.faults.backendCrash(1, w.warmup + w.measure / 2);
    } else {
        w.server.seed = seed;
    }
    return w;
}

Workload
ledgerVariant(const Workload &w)
{
    Workload v = w;
    v.measure += v.warmup;
    v.warmup = 0;
    return v;
}

RunOutcome
runOnce(const Workload &w, const RunOptions &opt)
{
    RunOutcome out;
    if (w.kind == SystemKind::Fleet)
        runFleet(w, opt, out);
    else
        runServer(w, opt, out);
    return out;
}

double
setupSecondsOnce(const Workload &w)
{
    // Teardown runs after the clock is read: set-up time only.
    const auto t0 = Clock::now();
    auto eq = std::make_unique<EventQueue>();
    std::unique_ptr<core::ServerSystem> server;
    std::unique_ptr<fleet::FleetSystem> fleet;
    if (w.kind == SystemKind::Fleet)
        fleet = std::make_unique<fleet::FleetSystem>(*eq, w.fleet);
    else
        server = std::make_unique<core::ServerSystem>(*eq, w.server);
    return secondsSince(t0);
}

std::string
resultJson(const core::RunResult &r)
{
    std::ostringstream os;
    r.toJson(os);
    return os.str();
}

std::string
simulationJson(const core::RunResult &r)
{
    core::RunResult s = r;
    s.trace_spans = 0;
    s.fr_dumps = 0;
    s.fr_trigger_fault = 0;
    s.fr_trigger_slo = 0;
    s.fr_trigger_shed = 0;
    s.fr_trigger_gov = 0;
    return resultJson(s);
}

std::string
digest(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
