#include "fleet/fleet.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/traffic.hh"
#include "obs/registry.hh"
#include "obs/report.hh"
#include "obs/span.hh"
#include "sim/parallel.hh"

namespace halsim::fleet {

std::vector<std::string>
FleetConfig::validate() const
{
    std::vector<std::string> errors;
    auto fail = [&errors](std::string msg) {
        errors.push_back(std::move(msg));
    };

    if (backends == 0)
        fail("backends must be > 0");
    // Backend identities are carved out of one /24 service subnet.
    if (backends > 128)
        fail("backends must be <= 128, got " + std::to_string(backends));

    if (frontend.vnodes == 0)
        fail("frontend.vnodes must be > 0");
    if (frontend.drain_timeout <= 0)
        fail("frontend.drain_timeout must be positive");

    if (backend.cores == 0)
        fail("backend.cores must be > 0");
    if (backend.core_rate_gbps <= 0.0)
        fail("backend.core_rate_gbps must be > 0");
    if (backend.ring_capacity == 0)
        fail("backend.ring_capacity must be > 0");
    if (backend.shed_watermark > backend.ring_capacity) {
        fail("backend.shed_watermark (" +
             std::to_string(backend.shed_watermark) +
             ") must be <= ring_capacity (" +
             std::to_string(backend.ring_capacity) + ")");
    }

    if (health.epoch <= 0)
        fail("health.epoch must be positive");
    if (health.fall == 0)
        fail("health.fall must be > 0");
    if (health.rise == 0)
        fail("health.rise must be > 0");

    if (client.flows == 0)
        fail("client.flows must be > 0");
    if (client.frame_bytes < net::kFrameHeaderLen) {
        fail("client.frame_bytes must be >= " +
             std::to_string(net::kFrameHeaderLen));
    }
    if (client.resample_epoch <= 0)
        fail("client.resample_epoch must be positive");
    if (client.retry.max_retries > 0 && client.retry.timeout == 0) {
        fail("client.retry: a retry budget (max_retries > 0) needs a "
             "nonzero timeout");
    }
    if (client.retry.enabled()) {
        if (client.retry.backoff_base <= 0)
            fail("client.retry.backoff_base must be positive");
        else if (client.retry.backoff_cap < client.retry.backoff_base)
            fail("client.retry.backoff_cap must be >= backoff_base");
    }

    if (link_gbps <= 0.0)
        fail("link_gbps must be > 0");
    if (link_queue == 0)
        fail("link_queue must be > 0");
    if (backend_static_w < 0.0)
        fail("backend_static_w must be >= 0");
    if (frontend_w < 0.0)
        fail("frontend_w must be >= 0");

    if (slo.target_p99_us < 0.0)
        fail("slo.target_p99_us must be >= 0");
    if (slo.epoch <= 0)
        fail("slo.epoch must be > 0");

    const std::vector<std::string> obs_errors = obs.validate();
    errors.insert(errors.end(), obs_errors.begin(), obs_errors.end());

    return errors;
}

FleetSystem::FleetSystem(EventQueue &eq, FleetConfig cfg)
    : eq_(eq), cfg_(std::move(cfg))
{
    const std::vector<std::string> errors = cfg_.validate();
    if (!errors.empty()) {
        std::string msg = "FleetConfig: ";
        for (std::size_t i = 0; i < errors.size(); ++i) {
            if (i)
                msg += "; ";
            msg += errors[i];
        }
        throw std::invalid_argument(msg);
    }

    const net::MacAddr clientMac = net::MacAddr::fromUint(0x02000000fe01);
    const net::MacAddr frontMac = net::MacAddr::fromUint(0x02000000fe02);
    const net::Ipv4Addr clientIp(10, 0, 1, 1);
    const net::Ipv4Addr frontIp(10, 0, 1, 2);

    frontend_ =
        std::make_unique<Frontend>(eq_, cfg_.frontend, cfg_.backends);

    ingressLink_ = std::make_unique<net::Link>(
        eq_,
        net::Link::Config{cfg_.link_gbps, cfg_.link_latency,
                          cfg_.link_queue, "ingress"},
        *frontend_);

    FleetClient::Config cc = cfg_.client;
    cc.endpoints.src_mac = clientMac;
    cc.endpoints.dst_mac = frontMac;
    cc.endpoints.src_ip = clientIp;
    cc.endpoints.dst_ip = frontIp;
    cc.endpoints.src_port = 40000;
    cc.endpoints.dst_port = 9000;
    cc.seed = cfg_.seed;
    client_ = std::make_unique<FleetClient>(eq_, cc, *ingressLink_);

    tap_ = std::make_unique<ResponseTap>(*frontend_, *client_);

    std::vector<Backend *> targets;
    targets.reserve(cfg_.backends);
    for (unsigned i = 0; i < cfg_.backends; ++i) {
        uplinks_.push_back(std::make_unique<net::Link>(
            eq_,
            net::Link::Config{cfg_.link_gbps, cfg_.link_latency,
                              cfg_.link_queue,
                              "up" + std::to_string(i)},
            *tap_));

        Backend::Config bc = cfg_.backend;
        bc.service_mac =
            net::MacAddr::fromUint(0x020000001000ull + i);
        bc.service_ip = net::Ipv4Addr(
            10, 0, 2, static_cast<std::uint8_t>(10 + i));
        bc.name = "backend" + std::to_string(i);
        bc.index = i;
        backends_.push_back(
            std::make_unique<Backend>(eq_, bc, *uplinks_.back()));

        downlinks_.push_back(std::make_unique<net::Link>(
            eq_,
            net::Link::Config{cfg_.link_gbps, cfg_.link_latency,
                              cfg_.link_queue,
                              "down" + std::to_string(i)},
            *backends_.back()));
        frontend_->setBackendSink(i, downlinks_.back().get());
        targets.push_back(backends_.back().get());
    }

    health_ = std::make_unique<HealthChecker>(eq_, cfg_.health,
                                              std::move(targets));
    health_->setOnDown(
        [this](unsigned b) { frontend_->onBackendDown(b); });
    health_->setOnUp([this](unsigned b) { frontend_->onBackendUp(b); });

    // --- energy ledger: one account per backend, summing exactly ------
    for (unsigned i = 0; i < cfg_.backends; ++i) {
        Backend *b = backends_[i].get();
        energy_.addDynamic(
            "backend" + std::to_string(i),
            [b] { return b->joulesNow(); },
            [b] { return b->currentW(); });
    }
    energy_.addStatic("static",
                      cfg_.backend_static_w *
                          static_cast<double>(cfg_.backends));
    energy_.addStatic("frontend", cfg_.frontend_w);

    if (cfg_.slo.enabled()) {
        slo_ = std::make_unique<obs::SloMonitor>(cfg_.slo);
        client_->setSlo(slo_.get());
    }

    buildObs();
}

FleetSystem::~FleetSystem() = default;

void
FleetSystem::buildObs()
{
    if (!cfg_.obs.enabled())
        return;
    obs_ = std::make_unique<obs::Observability>(eq_, cfg_.obs);

    obs::SpanTracer *sp = obs_->spans();
    obs::FlightRecorder *fr = obs_->flightRecorder();
    if (sp != nullptr || fr != nullptr) {
        using obs::Lane;
        client_->attachSpans(sp, fr, obs::laneId(Lane::Client));
        frontend_->attachSpans(sp, fr, obs::laneId(Lane::Frontend));
        for (auto &b : backends_)
            b->attachSpans(sp, fr, obs::laneId(Lane::Backend));
        health_->attachSpans(sp, fr, obs::laneId(Lane::Health));
    }
    if (fr != nullptr && slo_ != nullptr) {
        slo_->setOnViolation([this, fr](Tick, double p99_us) {
            obs::frTrigger(fr, eq_.now(), obs::FrTrigger::Slo,
                           static_cast<std::uint32_t>(p99_us));
        });
    }

    obs::StatsRegistry *reg =
        cfg_.obs.stats ? &obs_->registry() : nullptr;
    if (reg == nullptr)
        return;

    reg->fnCounter("fleet.client.sends",
                   [this] { return client_->sends(); });
    reg->fnCounter("fleet.client.unique_requests",
                   [this] { return client_->uniqueRequests(); });
    reg->fnCounter("fleet.client.retries",
                   [this] { return client_->retries(); });
    reg->fnCounter("fleet.client.timeouts",
                   [this] { return client_->timeouts(); });
    reg->fnCounter("fleet.client.duplicates",
                   [this] { return client_->duplicates(); });
    reg->fnCounter("fleet.client.completions",
                   [this] { return client_->completions(); });
    reg->fnCounter("fleet.client.failed",
                   [this] { return client_->failed(); });
    reg->fnGauge("fleet.client.outstanding", [this] {
        return static_cast<double>(client_->outstanding());
    });
    // Window-scoped attempts-per-request distribution: resetAll()
    // zeroes it at the warmup boundary; the client's own monotone
    // histogram keeps the exact whole-run ledger.
    client_->setAttemptsSink(
        reg->histogram("fleet.client.attempts", 1.0, 1024.0, 16));

    // Span/flight-recorder health. Null-safe reads so the paths the
    // bench schema requires exist in every stats artifact, reading
    // zero while spans/flightrec are off.
    reg->fnCounter("fleet.trace.spans_recorded", [this] {
        const obs::SpanTracer *t = obs_->spans();
        return t != nullptr ? t->recorded() : 0;
    });
    reg->fnCounter("fleet.trace.spans_overwritten", [this] {
        const obs::SpanTracer *t = obs_->spans();
        return t != nullptr ? t->overwritten() : 0;
    });
    reg->fnCounter("fleet.trace.spans_retained", [this] {
        const obs::SpanTracer *t = obs_->spans();
        return t != nullptr
                   ? static_cast<std::uint64_t>(t->size())
                   : 0;
    });
    obs_->registerFlightRecStats("fleet.flightrec");

    reg->fnCounter("fleet.frontend.dispatched",
                   [this] { return frontend_->dispatched(); });
    reg->fnCounter("fleet.frontend.unroutable_drops",
                   [this] { return frontend_->unroutableDrops(); });
    reg->fnCounter("fleet.frontend.flows_migrated",
                   [this] { return frontend_->flowsMigrated(); });
    reg->fnCounter("fleet.frontend.drains_started",
                   [this] { return frontend_->drainStarted(); });
    reg->fnCounter("fleet.frontend.drains_completed",
                   [this] { return frontend_->drainCompleted(); });
    reg->fnCounter("fleet.frontend.drain_timeouts",
                   [this] { return frontend_->drainTimeouts(); });
    reg->fnGauge("fleet.frontend.flows", [this] {
        return static_cast<double>(frontend_->flowCount());
    });
    reg->fnCounter("fleet.frontend.ingress_drops", [this] {
        return ingressLink_->drops() + ingressLink_->faultDrops();
    });

    reg->fnCounter("fleet.health.probes_sent",
                   [this] { return health_->probesSent(); });
    reg->fnCounter("fleet.health.probes_failed",
                   [this] { return health_->probesFailed(); });
    reg->fnCounter("fleet.health.probes_lost",
                   [this] { return health_->probesLost(); });
    reg->fnCounter("fleet.health.down_transitions",
                   [this] { return health_->downTransitions(); });
    reg->fnCounter("fleet.health.up_transitions",
                   [this] { return health_->upTransitions(); });

    for (unsigned i = 0; i < nBackends(); ++i) {
        const std::string p = "fleet.backend" + std::to_string(i);
        Backend *b = backends_[i].get();
        reg->fnCounter(p + ".served",
                       [b] { return b->served(); });
        reg->fnCounter(p + ".sheds", [b] { return b->sheds(); });
        reg->fnCounter(p + ".ring_drops",
                       [b] { return b->ringDrops(); });
        reg->fnCounter(p + ".crash_lost",
                       [b] { return b->crashLost(); });
        reg->fnCounter(p + ".dispatched", [this, i] {
            return frontend_->dispatchedTo(i);
        });
        reg->probe(p + ".occupancy", [b] {
            return static_cast<double>(b->occupancy());
        });
        net::Link *down = downlinks_[i].get();
        net::Link *up = uplinks_[i].get();
        reg->fnCounter(p + ".downlink_drops", [down] {
            return down->drops() + down->faultDrops();
        });
        reg->fnCounter(p + ".uplink_drops", [up] {
            return up->drops() + up->faultDrops();
        });
    }

    energy_.attachObs(reg, "fleet.energy", cfg_.obs.series);

    if (slo_ != nullptr) {
        reg->fnCounter("fleet.slo.epochs",
                       [this] { return slo_->epochs(); });
        reg->fnCounter("fleet.slo.violation_epochs",
                       [this] { return slo_->violationEpochs(); });
        reg->fnGauge("fleet.slo.target_p99_us",
                     [this] { return slo_->targetP99Us(); });
        reg->fnGauge("fleet.slo.worst_epoch_p99_us",
                     [this] { return slo_->worstEpochP99Us(); });
    }
}

std::uint64_t
FleetSystem::totalLosses() const
{
    std::uint64_t n = frontend_->unroutableDrops();
    n += ingressLink_->drops() + ingressLink_->faultDrops();
    for (const auto &b : backends_)
        n += b->losses();
    for (const auto &l : downlinks_)
        n += l->drops() + l->faultDrops();
    for (const auto &l : uplinks_)
        n += l->drops() + l->faultDrops();
    return n;
}

core::RunResult
FleetSystem::run(std::unique_ptr<net::RateProcess> rate, Tick warmup,
                 Tick measure, Tick resample_epoch)
{
    const Tick start = eq_.now();
    const Tick measure_start = start + warmup;
    const Tick end = measure_start + measure;

    if (!cfg_.faults.empty()) {
        fault::FaultHooks fh;
        fh.fleet_crash = [this](unsigned i, bool on) {
            if (i >= backends_.size())
                return false;
            if (on)
                backends_[i]->crash();
            else
                backends_[i]->restore();
            return true;
        };
        fh.fleet_stall = [this](unsigned i, bool on) {
            if (i >= backends_.size())
                return false;
            backends_[i]->setStalled(on);
            return true;
        };
        fh.probe_impair = [this](double loss, Rng *rng) {
            health_->setProbeImpairment(loss, rng);
        };
        fh.probe_restore = [this] {
            health_->clearProbeImpairment();
        };
        fh.on_inject = [this](const fault::FaultEvent &ev) {
            obs::frTrigger(obs_ != nullptr ? obs_->flightRecorder()
                                           : nullptr,
                           eq_.now(), obs::FrTrigger::Fault,
                           ev.index);
        };
        injector_ = std::make_unique<fault::FaultInjector>(
            eq_, cfg_.faults, std::move(fh));
        injector_->start(start);
    }

    // Probing outlives the traffic window by the drain budget so a
    // crash near the end is still detected while the fleet drains.
    health_->start(end + cfg_.frontend.drain_timeout);
    client_->setResampleEpoch(resample_epoch);
    client_->start(std::move(rate), end);

    // Guarded so a zero-warmup run snapshots its bases before the
    // first emission (runUntil executes events at exactly `until`,
    // which would otherwise slip one send under the baseline and
    // break the exact attempt-ledger reconciliation).
    if (measure_start > eq_.now())
        eq_.runUntil(measure_start);

    // Reset windows at the warmup boundary; monotone counters are
    // snapshot-differenced instead.
    client_->resetMeasurement();
    for (auto &b : backends_)
        b->resetStats();

    const std::uint64_t sends_base = client_->sends();
    const std::uint64_t sent_bytes_base = client_->sentBytes();
    const std::uint64_t retries_base = client_->retries();
    const std::uint64_t timeouts_base = client_->timeouts();
    const std::uint64_t dups_base = client_->duplicates();
    const std::uint64_t completions_base = client_->completions();
    const std::uint64_t failed_base = client_->failed();
    const std::uint64_t losses_base = totalLosses();
    std::uint64_t sheds_base = 0;
    for (const auto &b : backends_)
        sheds_base += b->sheds();
    const std::uint64_t migrated_base = frontend_->flowsMigrated();
    const std::uint64_t draintmo_base = frontend_->drainTimeouts();
    const std::uint64_t downs_base = health_->downTransitions();
    const std::uint64_t pfailed_base = health_->probesFailed();
    std::vector<std::uint64_t> served_base(backends_.size());
    for (std::size_t i = 0; i < backends_.size(); ++i)
        served_base[i] = backends_[i]->served();

    energy_.beginWindow(eq_.now());
    if (slo_ != nullptr)
        slo_->beginWindow(measure_start, end);
    if (obs_ != nullptr)
        obs_->beginWindow(end);

    // Windowed delivered-throughput sampler (same contract as the
    // single-server run: the window tracks the resample epoch).
    double max_window = 0.0;
    const Tick window = std::max<Tick>(resample_epoch, 1 * kMs);
    std::uint64_t last_bytes = client_->deliveredBytes();
    CallbackEvent sampler;
    sampler.setCallback([&] {
        const std::uint64_t b = client_->deliveredBytes();
        max_window =
            std::max(max_window, gbps(b - last_bytes, window));
        last_bytes = b;
        if (eq_.now() + window <= end)
            eq_.scheduleIn(&sampler, window);
    });
    eq_.scheduleIn(&sampler, window);

    eq_.runUntil(end);
    if (sampler.scheduled())
        eq_.deschedule(&sampler);
    if (obs_ != nullptr)
        obs_->stopSampling();

    core::RunResult r;
    double dyn = 0.0;
    for (const auto &b : backends_)
        dyn += b->averageW();
    r.dynamic_power_w = dyn;
    r.system_power_w =
        cfg_.backend_static_w * static_cast<double>(backends_.size()) +
        cfg_.frontend_w + dyn;

    // Close the energy/SLO windows before the drain so drained
    // requests' draw and latencies stay out of the window.
    energy_.endWindow(eq_.now());
    if (slo_ != nullptr)
        slo_->finishWindow();
    r.offered_gbps = gbps(client_->sentBytes() - sent_bytes_base,
                          end - measure_start);
    r.delivered_gbps = client_->deliveredGbps();

    {
        const std::uint64_t sent_w = client_->sends() - sends_base;
        const std::uint64_t resolved =
            (client_->completions() - completions_base) +
            (client_->duplicates() - dups_base) +
            (totalLosses() - losses_base);
        r.in_flight_at_window_end =
            sent_w > resolved ? sent_w - resolved : 0;
    }

    // Drain to quiescence. Every event source is bounded — emission
    // stopped at `end`, probing stops after the drain budget, retries
    // are budget-bounded — so the queue empties and the attempt
    // ledger closes exactly: every attempt sent in the window is now
    // a completion, a suppressed duplicate, or a loss with a reason
    // (modulo requests parked inside a still-stalled backend).
    eq_.run();

    r.sent = client_->sends() - sends_base;
    r.responses = client_->completions() - completions_base;
    r.max_window_gbps = std::max(max_window, r.delivered_gbps);
    r.p99_us = client_->p99Us();
    r.mean_us = client_->meanUs();
    r.energy_eff = r.system_power_w > 0.0
                       ? r.delivered_gbps / r.system_power_w
                       : 0.0;
    r.drops = totalLosses() - losses_base;

    r.fleet_backends = backends_.size();
    r.fleet_retries = client_->retries() - retries_base;
    r.fleet_timeouts = client_->timeouts() - timeouts_base;
    r.fleet_duplicates = client_->duplicates() - dups_base;
    std::uint64_t sheds = 0;
    for (const auto &b : backends_)
        sheds += b->sheds();
    r.fleet_sheds = sheds - sheds_base;
    r.fleet_requests_failed = client_->failed() - failed_base;
    r.fleet_failovers = health_->downTransitions() - downs_base;
    r.fleet_flows_migrated = frontend_->flowsMigrated() - migrated_base;
    r.fleet_drain_timeouts = frontend_->drainTimeouts() - draintmo_base;
    r.fleet_probes_failed = health_->probesFailed() - pfailed_base;
    std::uint64_t smin = ~0ull, smax = 0;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        const std::uint64_t s = backends_[i]->served() - served_base[i];
        smin = std::min(smin, s);
        smax = std::max(smax, s);
    }
    r.fleet_backend_served_min = smin;
    r.fleet_backend_served_max = smax;
    r.past_clamps = eq_.pastClamps();

    r.takeObsCounts(obs_.get(), eq_.now());

    if (injector_ != nullptr) {
        r.faults_injected = injector_->injected();
        r.faults_reverted = injector_->reverted();
        // Cancel remaining timers and heal any still-active fault so
        // back-to-back runs on one system start from health (and the
        // health checker drops its pointer into the injector's RNG).
        injector_->stop();
        injector_.reset();
    }

    // --- energy breakdown (window fixed above, pre-drain) ------------
    double fleet_j = 0.0;
    for (std::size_t i = 0; i < backends_.size(); ++i)
        fleet_j += energy_.joules("backend" + std::to_string(i));
    r.energy_fleet_j = fleet_j;
    r.energy_static_j = energy_.joules("static");
    r.energy_extra_j = energy_.joules("frontend");
    r.energy_total_j = energy_.totalJ();
    r.j_per_request = r.responses > 0
                          ? r.energy_total_j /
                                static_cast<double>(r.responses)
                          : 0.0;
    const double window_gb = r.delivered_gbps * energy_.windowSeconds();
    r.j_per_gb = window_gb > 0.0 ? r.energy_total_j / window_gb : 0.0;

    if (slo_ != nullptr) {
        r.slo_target_p99_us = slo_->targetP99Us();
        r.slo_worst_p99_us = slo_->worstEpochP99Us();
        r.slo_epochs = slo_->epochs();
        r.slo_violation_epochs = slo_->violationEpochs();
    }

    health_->stop();
    client_->stop();

    return r;
}

std::string
fleetRowJson(const FleetSweepPoint &point, const core::RunResult &r)
{
    std::ostringstream os;
    os << "{\"label\":\"" << obs::jsonEscape(point.label) << "\""
       << ",\"mode\":\"fleet\",\"function\":\"fleet\""
       << ",\"rate_gbps\":" << obs::jsonNumber(point.rate_gbps) << ",";
    r.toJsonFields(os);
    os << "}";
    return os.str();
}

std::vector<core::RunResult>
runFleetSweep(const std::vector<FleetSweepPoint> &points,
              const core::SweepOptions &opts)
{
    std::vector<core::RunResult> results(points.size());
    core::SweepArtifacts artifacts(opts, points.size());
    parallelFor(points.size(), opts.threads, [&](std::size_t i) {
        FleetSweepPoint p = points[i];
        core::applyObsFlags(opts, p.cfg.obs, p.cfg.slo);
        EventQueue eq;
        FleetSystem sys(eq, p.cfg);
        auto rate = std::make_unique<net::ConstantRate>(p.rate_gbps);
        results[i] =
            sys.run(std::move(rate), p.warmup, p.measure, p.resample);
        artifacts.capture(i, p.label, sys.obs());
    });

    if (!opts.json_path.empty()) {
        obs::SweepReport rep(opts.bench_name, opts.threads);
        for (std::size_t i = 0; i < points.size(); ++i)
            rep.addRow(fleetRowJson(points[i], results[i]));
        rep.saveResultsJson(opts.json_path);
    }
    artifacts.save("fleet", points.empty() ? 0 : points[0].cfg.seed);
    return results;
}

} // namespace halsim::fleet
