#include "core/server.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "funcs/content.hh"
#include "funcs/stateful.hh"

namespace halsim::core {

/**
 * Collect every configuration violation in one pass, each naming the
 * offending field (a zero-core processor never polls; watermarks
 * above the ring size can never trip). Callers that used to learn
 * about errors one ctor throw at a time now get the complete list.
 */
std::vector<std::string>
ServerConfig::validate() const
{
    std::vector<std::string> errors;
    auto fail = [&errors](std::string msg) {
        errors.push_back(std::move(msg));
    };

    const bool wants_host = mode != Mode::SnicOnly;
    const bool wants_snic = mode != Mode::HostOnly;
    if (wants_host && host_cores == 0)
        fail("host_cores must be > 0 in mode " +
             std::string(modeName(mode)));
    if (wants_snic && snic_cores == 0)
        fail("snic_cores must be > 0 in mode " +
             std::string(modeName(mode)));

    if (lbp.wm_high > proc::kRingDescriptors) {
        fail("lbp.wm_high (" + std::to_string(lbp.wm_high) +
             ") must be <= the ring size (" +
             std::to_string(proc::kRingDescriptors) + ")");
    }
    if (lbp.wm_low > lbp.wm_high)
        fail("lbp.wm_low (" + std::to_string(lbp.wm_low) +
             ") must be <= lbp.wm_high (" +
             std::to_string(lbp.wm_high) + ")");

    using Lbp = LoadBalancingPolicy;
    if (!(Lbp::kMinFwdGbps <= lbp.initial_fwd_gbps &&
          lbp.initial_fwd_gbps <= Lbp::kMaxFwdGbps)) {
        fail("lbp thresholds must satisfy min_fwd (" +
             std::to_string(Lbp::kMinFwdGbps) + ") <= initial (" +
             std::to_string(lbp.initial_fwd_gbps) + ") <= max_fwd (" +
             std::to_string(Lbp::kMaxFwdGbps) + ")");
    }

    if (lbp.epoch <= 0)
        fail("lbp.epoch must be positive");
    // Below the smallest Ethernet frame a payload would underflow;
    // below a whole KVS request every request would be malformed;
    // above the largest IPv4 packet the total length would wrap.
    if (frame_bytes < net::kSmallFrameBytes)
        fail("frame_bytes (" + std::to_string(frame_bytes) +
             ") must be >= " + std::to_string(net::kSmallFrameBytes));
    if (frame_bytes > net::kMaxFrameBytes)
        fail("frame_bytes (" + std::to_string(frame_bytes) +
             ") must be <= " + std::to_string(net::kMaxFrameBytes) +
             ", the largest frame an IPv4 total length describes");
    constexpr std::size_t kKvsFrameBytes =
        net::kFrameHeaderLen + funcs::KvsFunction::kRequestBytes;
    if ((function == funcs::FunctionId::Kvs ||
         pipeline_second == funcs::FunctionId::Kvs) &&
        frame_bytes < kKvsFrameBytes)
        fail("frame_bytes (" + std::to_string(frame_bytes) +
             ") must be >= " + std::to_string(kKvsFrameBytes) +
             " with kvs, whose requests are " +
             std::to_string(funcs::KvsFunction::kRequestBytes) +
             " payload bytes");

    if (mode == Mode::Slb || mode == Mode::HostSlb) {
        if (slb_cores == 0)
            fail("slb_cores must be > 0 in mode " +
                 std::string(modeName(mode)));
        // The balancer's cores come out of one processor's budget,
        // which must keep at least one core for the function.
        const bool on_snic = mode == Mode::Slb;
        const unsigned budget = on_snic ? snic_cores : host_cores;
        if (slb_cores >= budget)
            fail("slb_cores (" + std::to_string(slb_cores) +
                 ") must be < " + (on_snic ? "snic_cores" : "host_cores") +
                 " (" + std::to_string(budget) + ") in mode " +
                 std::string(modeName(mode)));
        if (slb_fwd_th_gbps < 0.0)
            fail("slb_fwd_th_gbps must be >= 0");
    }

    if (slo.target_p99_us < 0.0)
        fail("slo.target_p99_us must be >= 0");

    // The obs sub-struct validates itself (same every-violation-in-
    // one-pass contract); splice its messages in.
    const std::vector<std::string> obs_errors = obs.validate();
    errors.insert(errors.end(), obs_errors.begin(), obs_errors.end());

    return errors;
}

ServerConfig
ServerConfig::halDefault(funcs::FunctionId fn)
{
    ServerConfig c;
    c.mode = Mode::Hal;
    c.function = fn;
    return c;
}

ServerConfig
ServerConfig::hostBaseline(funcs::FunctionId fn)
{
    ServerConfig c;
    c.mode = Mode::HostOnly;
    c.function = fn;
    return c;
}

ServerConfig
ServerConfig::snicBaseline(funcs::FunctionId fn)
{
    ServerConfig c;
    c.mode = Mode::SnicOnly;
    c.function = fn;
    return c;
}

ServerConfig
ServerConfig::slbBaseline(funcs::FunctionId fn)
{
    ServerConfig c;
    c.mode = Mode::Slb;
    c.function = fn;
    return c;
}

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::HostOnly: return "host";
      case Mode::SnicOnly: return "snic";
      case Mode::Hal: return "hal";
      case Mode::Slb: return "slb";
      case Mode::HostSlb: return "slb-host";
    }
    return "?";
}

funcs::FunctionPtr
ServerSystem::makeFn(const ServerConfig &cfg)
{
    if (cfg.pipeline_second)
        return funcs::makePipeline(cfg.function, *cfg.pipeline_second);
    // The same case in which profileFor() applies remProfile().
    if (cfg.function == funcs::FunctionId::Rem)
        return std::make_unique<funcs::RemFunction>(cfg.rem_ruleset);
    return funcs::makeFunction(cfg.function);
}

ServerSystem::ServerSystem(EventQueue &eq, ServerConfig cfg)
    : eq_(eq), cfg_(cfg), rng_(cfg.seed ^ 0x5E57E4),
      clientMac_(net::MacAddr::fromUint(0x020000000001)),
      snicMac_(net::MacAddr::fromUint(0x020000000002)),
      hostMac_(net::MacAddr::fromUint(0x020000000003)),
      clientIp_(10, 0, 0, 1), snicIp_(10, 0, 0, 2), hostIp_(10, 0, 0, 3),
      fn_(makeFn(cfg_)), client_(eq_), extraPower_(eq_)
{
    const std::vector<std::string> errors = cfg_.validate();
    if (!errors.empty()) {
        std::string msg = "ServerConfig: ";
        for (std::size_t i = 0; i < errors.size(); ++i) {
            if (i)
                msg += "; ";
            msg += errors[i];
        }
        throw std::invalid_argument(msg);
    }

    const auto &paths = funcs::pathLatencies();

    const bool cooperative = cfg_.mode != Mode::HostOnly &&
                             cfg_.mode != Mode::SnicOnly;
    if (fn_->stateful() && cooperative && cfg_.coherent_state)
        domain_ = std::make_unique<coherence::CoherenceDomain>();

    // Under HAL both directions also cross the HLB FPGA (§V-A). Each
    // crossing is a fixed hop folded into the adjacent link rather
    // than an event of its own (see net::Link).
    const Tick hlb_hop =
        cfg_.mode == Mode::Hal ? paths.hlb_per_direction : 0;

    // --- Egress: processors -> merger -> (HLB) return link -> client
    net::Link::Config rc{100.0, 500 * kNs, 4096, "return"};
    rc.hop_before = hlb_hop;
    returnLink_ = std::make_unique<net::Link>(eq_, rc, client_);
    merger_ = std::make_unique<TrafficMerger>(
        TrafficMerger::Config{snicIp_, hostIp_, snicMac_}, *returnLink_);

    // Host responses cross PCIe back to the eSwitch first.
    hostTxDelay_ = std::make_unique<nic::FixedDelay>(
        eq_, paths.pcie_extra, *merger_);

    // --- Profiles -----------------------------------------------------
    auto profileFor = [&](funcs::Platform p) {
        if (cfg_.function == funcs::FunctionId::Rem &&
            !cfg_.pipeline_second) {
            return funcs::remProfile(p, cfg_.rem_ruleset);
        }
        if (cfg_.pipeline_second) {
            // Two-stage pipeline: stages run concurrently on
            // different cores/units (the paper's example feeds an
            // SNIC-CPU stage into an SNIC-accelerator stage), so the
            // combined rate is the slower stage's, derated for the
            // inter-stage hand-off; latency adds.
            constexpr double kInterStageEff = 0.9;
            const auto &a = funcs::profile(p, cfg_.function);
            const auto &b = funcs::profile(p, *cfg_.pipeline_second);
            funcs::FunctionProfile combo = a;
            // Pipelines run on the CPU unless a stage needs the
            // accelerator; the accelerator stage dominates latency.
            combo.unit = (a.unit == funcs::ExecUnit::Accel ||
                          b.unit == funcs::ExecUnit::Accel)
                             ? funcs::ExecUnit::Accel
                             : funcs::ExecUnit::Cpu;
            combo.max_tp_gbps =
                kInterStageEff * std::min(a.max_tp_gbps, b.max_tp_gbps);
            combo.cap_gbps = std::max(a.cap_gbps, b.cap_gbps);
            combo.accel_latency = a.accel_latency + b.accel_latency;
            combo.core_active_w =
                std::max(a.core_active_w, b.core_active_w);
            combo.accel_w = a.accel_w + b.accel_w;
            return combo;
        }
        return funcs::profile(p, cfg_.function);
    };

    // --- Processors ----------------------------------------------------
    const bool wants_host = cfg_.mode != Mode::SnicOnly;
    const bool wants_snic = cfg_.mode != Mode::HostOnly;

    if (wants_host) {
        proc::Processor::Config hc;
        hc.platform = cfg_.host_platform;
        hc.profile = profileFor(cfg_.host_platform);
        hc.cores = cfg_.mode == Mode::HostSlb
                       ? cfg_.host_cores - cfg_.slb_cores
                       : cfg_.host_cores;
        // Host cores sleep only under HAL (§V-B); the host baseline
        // busy-polls like any DPDK deployment.
        hc.sleep = cfg_.mode == Mode::Hal;
        hc.governor = cfg_.power.governor;
        hc.node = coherence::NodeId::Host;
        hc.service_mac = hostMac_;
        // In host-only mode the host IS the service identity.
        hc.service_ip = cfg_.mode == Mode::HostOnly ? snicIp_ : hostIp_;
        host_ = std::make_unique<proc::Processor>(
            eq_, hc, *fn_, domain_.get(), *hostTxDelay_);
    }

    if (wants_snic) {
        proc::Processor::Config sc;
        sc.platform = cfg_.snic_platform;
        sc.profile = profileFor(cfg_.snic_platform);
        // HAL dedicates one SNIC core to the LBP; the SNIC-side SLB
        // dedicates slb_cores to balancing (the host-side SLB takes
        // its cores from the host instead).
        unsigned cores = cfg_.snic_cores;
        if (cfg_.mode == Mode::Hal && cores > 1)
            cores -= 1;
        if (cfg_.mode == Mode::Slb)
            cores -= cfg_.slb_cores;
        sc.cores = cores;
        sc.dvfs = cfg_.power.snic_dvfs;
        sc.governor = cfg_.power.governor;
        sc.node = coherence::NodeId::Snic;
        sc.service_mac = snicMac_;
        sc.service_ip = snicIp_;
        snic_ = std::make_unique<proc::Processor>(
            eq_, sc, *fn_, domain_.get(), *merger_);
    }

    // --- Ingress paths -------------------------------------------------
    // For a stateful function under HAL, the server is the CXL-SNIC
    // emulation (§V-C): the host sits one cache-coherent hop away.
    const Tick host_hop =
        paths.eswitch_to_snic + paths.pcie_extra +
        (fn_->stateful() && cfg_.mode == Mode::Hal ? paths.upi_extra : 0);

    if (wants_snic) {
        snicPathDelay_ = std::make_unique<nic::FixedDelay>(
            eq_, paths.eswitch_to_snic, snic_->input());
    }
    if (wants_host) {
        hostPathDelay_ = std::make_unique<nic::FixedDelay>(
            eq_, host_hop, host_->input());
    }

    switch (cfg_.mode) {
      case Mode::HostOnly:
        ingress_ = hostPathDelay_.get();
        break;
      case Mode::SnicOnly:
        ingress_ = snicPathDelay_.get();
        break;
      case Mode::Hal: {
        eswitch_ = std::make_unique<nic::ESwitch>();
        eswitch_->addRule(snicIp_, snicPathDelay_.get());
        eswitch_->addRule(hostIp_, hostPathDelay_.get());
        monitor_ = std::make_unique<TrafficMonitor>(eq_);
        TrafficDirector::Config dc;
        dc.snic_ip = snicIp_;
        dc.host_ip = hostIp_;
        dc.host_mac = hostMac_;
        dc.mode = cfg_.split_mode;
        dc.initial_fwd_th_gbps = cfg_.lbp.initial_fwd_gbps;
        director_ = std::make_unique<TrafficDirector>(
            eq_, dc, *monitor_, *eswitch_);
        lbp_ = std::make_unique<LoadBalancingPolicy>(eq_, cfg_.lbp,
                                                     *snic_, *director_);
        if (snic_->hasGovernor()) {
            // LBP/governor co-design contract: the director decides
            // *where* (threshold) from the capacity the governor's
            // *how many* currently provides, so a consolidated SNIC
            // is never asked to absorb its full static rating.
            lbp_->setCapacityProvider([this] {
                return snic_->config().profile.scaledTp(
                    snic_->governorActiveCores());
            });
        }
        // LbpSilent falls back to the LBP's own starting threshold.
        watchdog_ = std::make_unique<HealthWatchdog>(
            eq_, cfg_.lbp.initial_fwd_gbps, snic_.get(), host_.get(),
            director_.get(), lbp_.get(), [this] { return totalDrops(); });
        // The LBP occupies one SNIC core; the HLB burns its FPGA
        // power (§VII-C).
        extraPower_.add(
            funcs::profile(cfg_.snic_platform, cfg_.function)
                .core_active_w +
            kHlbPowerW);
        ingress_ = director_.get();
        break;
      }
      case Mode::Slb: {
        SoftwareLoadBalancer::Config lc;
        lc.slb_cores = cfg_.slb_cores;
        lc.fwd_th_gbps = cfg_.slb_fwd_th_gbps;
        lc.fwd_ip = hostIp_;
        lc.fwd_mac = hostMac_;
        lc.core_active_w =
            funcs::profile(cfg_.snic_platform, cfg_.function)
                .core_active_w;
        // Forwarded packets cross from SNIC memory over PCIe.
        slb_ = std::make_unique<SoftwareLoadBalancer>(
            eq_, lc, snic_->input(), *hostPathDelay_, extraPower_);
        // Everything lands on the SLB cores first (via the eSwitch
        // path into SNIC memory).
        snicPathDelay_ = std::make_unique<nic::FixedDelay>(
            eq_, paths.eswitch_to_snic, slb_->input());
        ingress_ = snicPathDelay_.get();
        break;
      }
      case Mode::HostSlb: {
        // §IV alternative: every packet first crosses to the host,
        // whose SLB cores keep the excess and tx_burst the
        // below-threshold share back through the eSwitch to the SNIC
        // (eSwitch -> host -> eSwitch -> SNIC: 2x DPDK processing).
        SoftwareLoadBalancer::Config lc;
        lc.slb_cores = cfg_.slb_cores;
        lc.fwd_th_gbps = cfg_.slb_fwd_th_gbps;
        lc.fwd_ip = snicIp_;
        lc.fwd_mac = snicMac_;
        lc.forward_kept = true;
        // A full DPDK rx_burst + tx_burst pass on the host per
        // packet (the paper's "2x DPDK packet processing"), plus the
        // copy bandwidth; host cores are several times faster than
        // the wimpy Arm cores at both.
        lc.classify_cost = 600 * kNs;
        lc.fwd_gbps_per_core = 60.0;
        lc.core_active_w =
            funcs::profile(cfg_.host_platform, cfg_.function)
                .core_active_w;
        // PCIe back to the eSwitch, the eSwitch hop, and the SNIC's
        // own receive processing of the forwarded stream.
        lc.fwd_path_latency =
            paths.pcie_extra + 2 * paths.eswitch_to_snic;
        slb_ = std::make_unique<SoftwareLoadBalancer>(
            eq_, lc, host_->input(), snic_->input(), extraPower_);
        hostPathDelay_ = std::make_unique<nic::FixedDelay>(
            eq_, paths.eswitch_to_snic + paths.pcie_extra,
            slb_->input());
        ingress_ = hostPathDelay_.get();
        break;
      }
    }

    // --- Client link (-> HLB) --------------------------------------------
    net::Link::Config cc{100.0, 500 * kNs, 4096, "client"};
    cc.hop_after = hlb_hop;
    clientLink_ = std::make_unique<net::Link>(eq_, cc, *ingress_);

    // --- Energy ledger (§V-B / Fig. 3) -------------------------------
    // Dynamic accounts bind the processors' monotone per-component
    // watt integrators; "extra" is the HLB/LBP/SLB meter (reset at the
    // warmup boundary, snapshot taken after that reset); "static" is
    // the idle-server baseline integrated analytically.
    // Governor-armed processors get per-core CPU sub-accounts
    // ("snic_cpu.core0", ...) *instead of* the aggregate, so park
    // decisions show up core by core in the ledger and totalJ() never
    // double-counts; RunResult reads the component through
    // joulesPrefix(), which sums either layout.
    auto addCpuAccounts = [this](proc::Processor *p,
                                 const std::string &name) {
        if (p->hasGovernor()) {
            for (unsigned i = 0; i < p->coreCount(); ++i) {
                energy_.addDynamic(
                    name + ".core" + std::to_string(i),
                    [p, i] { return p->coreJoulesNow(i); },
                    [p, i] { return p->coreCurrentW(i); });
            }
        } else {
            energy_.addDynamic(
                name, [p] { return p->cpuJoulesNow(); },
                [p] { return p->cpuCurrentW(); });
        }
    };
    if (snic_ != nullptr) {
        addCpuAccounts(snic_.get(), "snic_cpu");
        energy_.addDynamic(
            "snic_accel", [this] { return snic_->accelJoulesNow(); },
            [this] { return snic_->accelCurrentW(); });
    }
    if (host_ != nullptr) {
        addCpuAccounts(host_.get(), "host_cpu");
        energy_.addDynamic(
            "host_accel", [this] { return host_->accelJoulesNow(); },
            [this] { return host_->accelCurrentW(); });
    }
    energy_.addDynamic(
        "extra", [this] { return extraPower_.joules(); },
        [this] { return extraPower_.currentW(); });
    energy_.addStatic("static", funcs::kServerBasePowerW);

    // --- SLO monitor (Table 2) ---------------------------------------
    // Always constructed when configured, independent of cfg_.obs, so
    // the SLO RunResult fields do not depend on whether stats/tracing
    // are enabled.
    if (cfg_.slo.enabled()) {
        slo_ = std::make_unique<obs::SloMonitor>(cfg_.slo);
        client_.setSlo(slo_.get());
    }

    buildObs();
}

void
ServerSystem::buildObs()
{
    if (!cfg_.obs.enabled())
        return;
    obs_ = std::make_unique<obs::Observability>(eq_, cfg_.obs);

    using obs::Lane;
    obs::SpanTracer *tr = obs_->tracer();
    if (tr != nullptr) {
        clientLink_->setTrace(tr, obs::laneId(Lane::ClientLink),
                              obs::TracePoint::Ingress);
        returnLink_->setTrace(tr, obs::laneId(Lane::ReturnLink),
                              obs::TracePoint::Egress);
        if (eswitch_ != nullptr)
            eswitch_->setTrace(tr, obs::laneId(Lane::Eswitch), &eq_);
        if (merger_ != nullptr)
            merger_->setTrace(tr, obs::laneId(Lane::Merger), &eq_);
    }

    // Governor epochs land in the same ring as the packet stages, so
    // one document shows a decision next to the packets around it.
    obs::SpanTracer *sp = obs_->spans();
    obs::FlightRecorder *fr = obs_->flightRecorder();
    if (sp != nullptr || fr != nullptr) {
        const std::uint8_t govLane = obs::laneId(Lane::Governor);
        if (snic_ != nullptr && snic_->coreGovernor() != nullptr)
            snic_->coreGovernor()->attachSpans(sp, fr, govLane);
        if (host_ != nullptr && host_->coreGovernor() != nullptr)
            host_->coreGovernor()->attachSpans(sp, fr, govLane);
    }
    if (fr != nullptr && slo_ != nullptr) {
        slo_->setOnViolation([this, fr](Tick, double p99_us) {
            obs::frTrigger(fr, eq_.now(), obs::FrTrigger::Slo,
                           static_cast<std::uint32_t>(p99_us));
        });
    }

    obs::StatsRegistry *reg = cfg_.obs.stats ? &obs_->registry() : nullptr;

    if (snic_ != nullptr) {
        snic_->attachObs(reg, tr, "server.snic",
                         obs::laneId(Lane::SnicRing),
                         obs::laneId(Lane::SnicCore));
    }
    if (host_ != nullptr) {
        host_->attachObs(reg, tr, "server.host",
                         obs::laneId(Lane::HostRing),
                         obs::laneId(Lane::HostCore));
    }

    if (reg == nullptr)
        return;

    // --- the rest of the component tree (pull-based: fnCounters read
    // live component counters at serialization; probes sample each
    // epoch) ----------------------------------------------------------
    reg->fnCounter("server.client_link.delivered_frames",
                   [this] { return clientLink_->deliveredFrames(); });
    reg->fnCounter("server.client_link.delivered_bytes",
                   [this] { return clientLink_->deliveredBytes(); });
    reg->fnCounter("server.client_link.drops",
                   [this] { return clientLink_->drops(); });
    reg->fnCounter("server.client_link.fault_drops",
                   [this] { return clientLink_->faultDrops(); });
    reg->fnCounter("server.return_link.delivered_frames",
                   [this] { return returnLink_->deliveredFrames(); });
    reg->fnCounter("server.return_link.delivered_bytes",
                   [this] { return returnLink_->deliveredBytes(); });
    reg->fnCounter("server.return_link.drops",
                   [this] { return returnLink_->drops(); });
    reg->fnCounter("server.return_link.fault_drops",
                   [this] { return returnLink_->faultDrops(); });
    reg->fnCounter("server.eq.past_clamps",
                   [this] { return eq_.pastClamps(); });

    // Core-scaling governor aggregates over both processors. These
    // register unconditionally (zero when the governor is off) so
    // every server-rooted stats artifact carries the paths the bench
    // schema requires.
    reg->fnCounter("server.governor.epochs", [this] {
        return (snic_ != nullptr ? snic_->governorEpochs() : 0) +
               (host_ != nullptr ? host_->governorEpochs() : 0);
    });
    reg->fnCounter("server.governor.rebalances", [this] {
        return (snic_ != nullptr ? snic_->governorRebalances() : 0) +
               (host_ != nullptr ? host_->governorRebalances() : 0);
    });
    reg->fnCounter("server.governor.migrations", [this] {
        return (snic_ != nullptr ? snic_->governorMigrations() : 0) +
               (host_ != nullptr ? host_->governorMigrations() : 0);
    });
    reg->fnCounter("server.governor.parks", [this] {
        return (snic_ != nullptr ? snic_->governorParks() : 0) +
               (host_ != nullptr ? host_->governorParks() : 0);
    });
    reg->fnCounter("server.governor.unparks", [this] {
        return (snic_ != nullptr ? snic_->governorUnparks() : 0) +
               (host_ != nullptr ? host_->governorUnparks() : 0);
    });
    reg->fnGauge("server.governor.active_cores", [this] {
        unsigned n = 0;
        if (snic_ != nullptr)
            n += snic_->governorActiveCores();
        if (host_ != nullptr)
            n += host_->governorActiveCores();
        return static_cast<double>(n);
    });

    // Flight-recorder health: unconditional like the governor block
    // above (zero when off).
    obs_->registerFlightRecStats("server.flightrec");

    if (eswitch_ != nullptr) {
        reg->fnCounter("server.eswitch.matched",
                       [this] { return eswitch_->matched(); });
        reg->fnCounter("server.eswitch.unrouted",
                       [this] { return eswitch_->unrouted(); });
        reg->fnCounter("server.eswitch.blackholed",
                       [this] { return eswitch_->blackholed(); });
    }

    if (monitor_ != nullptr) {
        reg->probe("server.hlb.monitor.rate_rx_gbps",
                   [this] { return monitor_->rateRxGbps(); },
                   obs::StatsRegistry::ProbeOptions{0.1, 400.0, 16});
    }
    if (director_ != nullptr) {
        reg->probe("server.hlb.director.fwd_th_gbps",
                   [this] { return director_->fwdThGbps(); },
                   obs::StatsRegistry::ProbeOptions{0.1, 400.0, 16});
        reg->fnCounter("server.hlb.director.to_snic",
                       [this] { return director_->toSnic(); });
        reg->fnCounter("server.hlb.director.to_host",
                       [this] { return director_->toHost(); });
    }
    if (merger_ != nullptr) {
        reg->fnCounter("server.hlb.merger.merged",
                       [this] { return merger_->merged(); });
        reg->fnCounter("server.hlb.merger.total",
                       [this] { return merger_->total(); });
    }
    if (lbp_ != nullptr) {
        reg->fnCounter("server.lbp.epochs",
                       [this] { return lbp_->epochs(); });
        reg->fnCounter("server.lbp.adjustments_up",
                       [this] { return lbp_->adjustmentsUp(); });
        reg->fnCounter("server.lbp.adjustments_down",
                       [this] { return lbp_->adjustmentsDown(); });
        reg->fnCounter("server.lbp.heartbeats",
                       [this] { return lbp_->heartbeats(); });
        reg->probe("server.lbp.snic_tp_gbps",
                   [this] { return lbp_->snicTpGbps(); },
                   obs::StatsRegistry::ProbeOptions{0.1, 400.0, 16});
    }
    if (watchdog_ != nullptr) {
        reg->fnCounter("server.watchdog.failovers", [this] {
            return watchdog_->stats().failovers;
        });
        reg->fnCounter("server.watchdog.recoveries", [this] {
            return watchdog_->stats().recoveries;
        });
        reg->probe("server.watchdog.state", [this] {
            return static_cast<double>(watchdog_->state());
        });
    }
    if (slb_ != nullptr) {
        reg->fnCounter("server.slb.kept_local",
                       [this] { return slb_->keptLocal(); });
        reg->fnCounter("server.slb.forwarded",
                       [this] { return slb_->forwarded(); });
        reg->fnCounter("server.slb.drops",
                       [this] { return slb_->drops(); });
    }

    // Per-component energy accounts: lazy joules gauges plus
    // epoch-sampled power probes.
    energy_.attachObs(reg, "server.energy");

    if (slo_ != nullptr) {
        reg->fnCounter("server.slo.epochs",
                       [this] { return slo_->epochs(); });
        reg->fnCounter("server.slo.violation_epochs",
                       [this] { return slo_->violationEpochs(); });
        reg->fnGauge("server.slo.target_p99_us",
                     [this] { return slo_->targetP99Us(); });
        reg->fnGauge("server.slo.worst_epoch_p99_us",
                     [this] { return slo_->worstEpochP99Us(); });

        const obs::SpanTracer *ring = obs_->tracer();
        if (ring != nullptr) {
            // Tail attribution recomputes from the ring's Stage records
            // at serialization time; deterministic for a given ring,
            // and stats-tree-only (RunResult must not depend on
            // tracing).
            const Tick target = static_cast<Tick>(
                cfg_.slo.target_p99_us * static_cast<double>(kUs));
            auto tail = [ring, target] {
                return obs::attributeTail(*ring, target);
            };
            reg->fnCounter("server.slo.tail_dispatch",
                           [tail] { return tail().dispatch; });
            reg->fnCounter("server.slo.tail_queue_wait",
                           [tail] { return tail().queue_wait; });
            reg->fnCounter("server.slo.tail_service",
                           [tail] { return tail().service; });
            reg->fnCounter("server.slo.tail_egress",
                           [tail] { return tail().egress; });
            reg->fnCounter("server.slo.tail_attributed",
                           [tail] { return tail().attributed; });
        }
    }
}

ServerSystem::~ServerSystem() = default;

double
ServerSystem::totalDynamicW() const
{
    double w = extraPower_.averageW();
    if (snic_ != nullptr)
        w += snic_->averageDynamicW();
    if (host_ != nullptr)
        w += host_->averageDynamicW();
    return w;
}

std::uint64_t
ServerSystem::totalDrops() const
{
    return (snic_ != nullptr ? snic_->drops() : 0) +
           (host_ != nullptr ? host_->drops() : 0) +
           (slb_ != nullptr ? slb_->drops() : 0) +
           (eswitch_ != nullptr
                ? eswitch_->unrouted() + eswitch_->blackholed()
                : 0) +
           clientLink_->drops() + clientLink_->faultDrops() +
           returnLink_->drops() + returnLink_->faultDrops();
}

void
RunResult::takeObsCounts(obs::Observability *obs, Tick now)
{
    if (obs == nullptr)
        return;
    if (const obs::SpanTracer *sp = obs->spans(); sp != nullptr)
        trace_spans = sp->recorded();
    if (obs::FlightRecorder *f = obs->flightRecorder(); f != nullptr) {
        // The drain already ran every scheduled flush; this only
        // closes dumps whose post window outlived the run.
        f->finalizePending(now);
        fr_dumps = f->dumps();
        fr_trigger_fault = f->triggers(obs::FrTrigger::Fault);
        fr_trigger_slo = f->triggers(obs::FrTrigger::Slo);
        fr_trigger_shed = f->triggers(obs::FrTrigger::Shed);
        fr_trigger_gov = f->triggers(obs::FrTrigger::Gov);
    }
}

RunResult
ServerSystem::run(std::unique_ptr<net::RateProcess> rate, Tick warmup,
                  Tick measure, Tick resample_epoch)
{
    net::TrafficGenerator::Config gc;
    gc.endpoints.src_mac = clientMac_;
    gc.endpoints.dst_mac = snicMac_;
    gc.endpoints.src_ip = clientIp_;
    gc.endpoints.dst_ip = snicIp_;
    gc.endpoints.src_port = 40000;
    gc.endpoints.dst_port = 9000;
    gc.frame_bytes = cfg_.frame_bytes;
    gc.resample_epoch = resample_epoch;
    gc.seed = cfg_.seed;

    net::TrafficGenerator gen(eq_, gc, std::move(rate), *clientLink_);
    gen.setPayloadFn(
        [this](net::Packet &pkt) { fn_->makeRequest(pkt, rng_); });

    if (monitor_ != nullptr)
        monitor_->start();
    if (lbp_ != nullptr)
        lbp_->start();
    if (watchdog_ != nullptr) {
        watchdog_->resetStats();
        watchdog_->start();
    }
    if (!cfg_.faults.empty()) {
        fault::FaultHooks fh;
        fh.snic = snic_.get();
        fh.host = host_.get();
        fh.client_link = clientLink_.get();
        fh.return_link = returnLink_.get();
        if (eswitch_ != nullptr) {
            fh.switch_port = [this](fault::FaultTarget t, bool up) {
                eswitch_->setPortEnabled(
                    t == fault::FaultTarget::Host ? hostIp_ : snicIp_,
                    up);
            };
        }
        if (lbp_ != nullptr) {
            fh.control_impair = [this](double loss, Tick extra,
                                       Rng *rng) {
                lbp_->setControlImpairment(loss, extra, rng);
            };
            fh.control_restore = [this] {
                lbp_->clearControlImpairment();
            };
            fh.lbp_stalled = [this](bool s) { lbp_->setStalled(s); };
        }
        fh.on_inject = [this](const fault::FaultEvent &ev) {
            obs::frTrigger(obs_ != nullptr ? obs_->flightRecorder()
                                           : nullptr,
                           eq_.now(), obs::FrTrigger::Fault,
                           ev.index);
        };
        injector_ = std::make_unique<fault::FaultInjector>(
            eq_, cfg_.faults, std::move(fh));
        injector_->start(eq_.now());
    }

    const Tick start = eq_.now();
    const Tick measure_start = start + warmup;
    const Tick end = measure_start + measure;
    gen.start(end);

    eq_.runUntil(measure_start);

    // Reset all statistics at the warmup boundary.
    client_.resetStats();
    extraPower_.reset();
    if (snic_ != nullptr)
        snic_->resetStats();
    if (host_ != nullptr)
        host_->resetStats();
    if (director_ != nullptr)
        director_->resetStats();
    if (slb_ != nullptr)
        slb_->resetStats();
    const std::uint64_t sent_base = gen.sentFrames();
    const std::uint64_t sent_bytes_base = gen.sentBytes();
    const std::uint64_t snic_base =
        snic_ != nullptr ? snic_->processedFrames() : 0;
    const std::uint64_t host_base =
        host_ != nullptr ? host_->processedFrames() : 0;
    const std::uint64_t drops_base = totalDrops();

    // Energy/SLO windows open at the same boundary the meters were
    // just reset at (the ledger snapshots extraPower_'s freshly
    // zeroed integral, and the per-core watt mirrors by differencing).
    energy_.beginWindow(measure_start);
    if (slo_ != nullptr)
        slo_->beginWindow(measure_start, end);

    // Observability covers the measurement window only: discard
    // warmup samples/records and start the probe sampler. All of it
    // is read-only, so results are identical with obs off.
    if (obs_ != nullptr)
        obs_->beginWindow(end);

    // Windowed throughput sampler for the "Max" columns of Table V.
    // The window tracks the rate-modulation epoch so bursts are not
    // averaged away.
    double max_window = 0.0;
    const Tick window = std::max<Tick>(resample_epoch, 1 * kMs);
    auto delivered_bytes = [this]() {
        std::uint64_t b = 0;
        if (snic_ != nullptr)
            b += snic_->processedBytes();
        if (host_ != nullptr)
            b += host_->processedBytes();
        return b;
    };
    std::uint64_t last_bytes_snapshot = delivered_bytes();
    CallbackEvent sampler;
    sampler.setCallback([&] {
        const std::uint64_t b = delivered_bytes();
        max_window = std::max(max_window,
                              gbps(b - last_bytes_snapshot, window));
        last_bytes_snapshot = b;
        if (eq_.now() + window <= end)
            eq_.scheduleIn(&sampler, window);
    });
    eq_.scheduleIn(&sampler, window);

    eq_.runUntil(end);
    if (sampler.scheduled())
        eq_.deschedule(&sampler);
    if (obs_ != nullptr)
        obs_->stopSampling();
    gen.stop();

    // Read rate/power metrics at the end of the measurement window,
    // then let in-flight packets drain so their latency still counts.
    RunResult r;
    r.dynamic_power_w = totalDynamicW();
    r.system_power_w = funcs::kServerBasePowerW + r.dynamic_power_w;

    // Close the energy/SLO windows at the same boundary the power
    // averages were read — before the drain, so drained packets'
    // draw and latencies stay out of the window (record() also
    // clamps at windowEnd_, making the drain doubly excluded).
    energy_.endWindow(end);
    if (slo_ != nullptr)
        slo_->finishWindow();
    r.offered_gbps =
        gbps(gen.sentBytes() - sent_bytes_base, end - measure_start);
    r.delivered_gbps = client_.deliveredGbps();

    // In-flight boundary accounting: everything sent this window that
    // is neither answered nor dropped yet is still inside the server.
    {
        const std::uint64_t sent_w = gen.sentFrames() - sent_base;
        const std::uint64_t resolved =
            client_.responses() + (totalDrops() - drops_base);
        r.in_flight_at_window_end =
            sent_w > resolved ? sent_w - resolved : 0;
    }

    eq_.runUntil(end + 10 * kMs);

    r.sent = gen.sentFrames() - sent_base;
    r.responses = client_.responses();
    r.max_window_gbps = std::max(max_window, r.delivered_gbps);
    r.p99_us = client_.p99Us();
    r.mean_us = client_.meanUs();
    r.energy_eff = r.system_power_w > 0.0
                       ? r.delivered_gbps / r.system_power_w
                       : 0.0;
    r.snic_frames = (snic_ != nullptr ? snic_->processedFrames() : 0) -
                    snic_base;
    r.host_frames = (host_ != nullptr ? host_->processedFrames() : 0) -
                    host_base;
    r.drops = totalDrops() - drops_base;
    r.slb_kept = slb_ != nullptr ? slb_->keptLocal() : 0;
    r.slb_forwarded = slb_ != nullptr ? slb_->forwarded() : 0;
    r.final_fwd_th_gbps = lbp_ != nullptr ? lbp_->fwdTh() : 0.0;

    if (watchdog_ != nullptr) {
        watchdog_->stop();
        const auto &ws = watchdog_->stats();
        r.failovers = ws.failovers;
        r.recoveries = ws.recoveries;
        r.degraded_us =
            static_cast<double>(ws.degraded) / static_cast<double>(kUs);
        r.time_to_recover_us =
            static_cast<double>(ws.last_recovery_latency) /
            static_cast<double>(kUs);
        r.failover_drops = ws.degraded_drops;
    }
    if (injector_ != nullptr) {
        r.faults_injected = injector_->injected();
        r.faults_reverted = injector_->reverted();
        // Cancel remaining timers and heal any still-active fault so
        // back-to-back runs on one system start from health (and no
        // Link keeps a pointer into the injector's RNG).
        injector_->stop();
        injector_.reset();
    }
    if (lbp_ != nullptr)
        r.ctrl_updates_dropped = lbp_->updatesDropped();
    r.past_clamps = eq_.pastClamps();

    // --- distributed tracing / flight recorder (zero when off) -------
    r.takeObsCounts(obs_.get(), eq_.now());

    // --- core-scaling governor (zero when unarmed) -------------------
    r.gov_epochs = (snic_ != nullptr ? snic_->governorEpochs() : 0) +
                   (host_ != nullptr ? host_->governorEpochs() : 0);
    r.gov_rebalances =
        (snic_ != nullptr ? snic_->governorRebalances() : 0) +
        (host_ != nullptr ? host_->governorRebalances() : 0);
    r.gov_migrations =
        (snic_ != nullptr ? snic_->governorMigrations() : 0) +
        (host_ != nullptr ? host_->governorMigrations() : 0);
    r.gov_parks = (snic_ != nullptr ? snic_->governorParks() : 0) +
                  (host_ != nullptr ? host_->governorParks() : 0);
    r.gov_unparks = (snic_ != nullptr ? snic_->governorUnparks() : 0) +
                    (host_ != nullptr ? host_->governorUnparks() : 0);
    r.gov_min_active_cores =
        (snic_ != nullptr ? snic_->governorMinActive() : 0) +
        (host_ != nullptr ? host_->governorMinActive() : 0);
    r.gov_max_active_cores =
        (snic_ != nullptr ? snic_->governorMaxActive() : 0) +
        (host_ != nullptr ? host_->governorMaxActive() : 0);

    // --- energy breakdown (window fixed above, pre-drain) ------------
    // joulesPrefix sums one aggregate account or the governor-armed
    // per-core sub-accounts, whichever layout this run registered.
    r.energy_snic_cpu_j = energy_.joulesPrefix("snic_cpu");
    r.energy_snic_accel_j = energy_.joules("snic_accel");
    r.energy_host_cpu_j = energy_.joulesPrefix("host_cpu");
    r.energy_host_accel_j = energy_.joules("host_accel");
    r.energy_extra_j = energy_.joules("extra");
    r.energy_static_j = energy_.joules("static");
    r.energy_total_j = energy_.totalJ();
    r.j_per_request = r.responses > 0
                          ? r.energy_total_j /
                                static_cast<double>(r.responses)
                          : 0.0;
    const double window_gb =
        r.delivered_gbps * energy_.windowSeconds();
    r.j_per_gb = window_gb > 0.0 ? r.energy_total_j / window_gb : 0.0;

    if (slo_ != nullptr) {
        r.slo_target_p99_us = slo_->targetP99Us();
        r.slo_worst_p99_us = slo_->worstEpochP99Us();
        r.slo_epochs = slo_->epochs();
        r.slo_violation_epochs = slo_->violationEpochs();
    }

    if (monitor_ != nullptr)
        monitor_->stop();
    if (lbp_ != nullptr)
        lbp_->stop();

    return r;
}

} // namespace halsim::core
