/**
 * @file
 * ServerSystem: the full evaluated machine. Assembles client link,
 * HLB (monitor/director/merger), eSwitch, SNIC processor, host
 * processor, LBP, and power accounting in one of four modes:
 *
 *  - HostOnly: the host processor handles every packet (the paper's
 *    host baseline);
 *  - SnicOnly: the SNIC processor handles every packet;
 *  - Hal:      the proposed system — HLB splits at Fwd_Th set by LBP,
 *    host cores sleep at low rates;
 *  - Slb:      the software load balancer baseline of §IV.
 *
 * run() drives a traffic process through the system with a warmup and
 * a measurement window and returns the paper's metrics: delivered
 * throughput (average and windowed max), p99 latency, average
 * system-wide power, and energy efficiency.
 */

#ifndef HALSIM_CORE_SERVER_HH
#define HALSIM_CORE_SERVER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "coherence/domain.hh"
#include "core/hlb.hh"
#include "core/lbp.hh"
#include "core/slb.hh"
#include "core/watchdog.hh"
#include "fault/fault.hh"
#include "funcs/calibration.hh"
#include "funcs/registry.hh"
#include "net/client.hh"
#include "net/link.hh"
#include "net/traffic.hh"
#include "nic/eswitch.hh"
#include "obs/energy.hh"
#include "obs/obs.hh"
#include "obs/slo.hh"
#include "proc/processor.hh"
#include "sim/event_queue.hh"

namespace halsim::core {

/** Which processors handle traffic. */
enum class Mode : std::uint8_t
{
    HostOnly,
    SnicOnly,
    Hal,
    Slb,
    /** §IV's alternative: the host CPU runs the software balancer,
     *  keeping the excess and forwarding the below-threshold share
     *  to the SNIC — always-hot host, double DPDK processing. */
    HostSlb,
};

const char *modeName(Mode m);

/** Full system configuration. */
struct ServerConfig
{
    Mode mode = Mode::Hal;

    funcs::FunctionId function = funcs::FunctionId::Nat;
    /** Second stage for the pipelined compositions of §VII-B. */
    std::optional<funcs::FunctionId> pipeline_second;
    /** REM ruleset variant (affects the host profile, §III-A). */
    alg::RulesetKind rem_ruleset = alg::RulesetKind::Teakettle;

    funcs::Platform host_platform = funcs::Platform::HostSkylake;
    funcs::Platform snic_platform = funcs::Platform::SnicBf2;
    unsigned host_cores = 8;
    unsigned snic_cores = 8;
    std::uint32_t ring_descriptors = 512;

    /**
     * All power management in one sub-struct: host-CPU sleep states
     * (§V-B, HAL default on), SNIC-CPU DVFS (§VIII), and the adaptive
     * core-scaling governor (ROADMAP item 3). The governor arms on
     * *both* CPU processors; LBP reads its active capacity.
     */
    proc::PowerPolicy power;

    /**
     * Share stateful-function state coherently (CXL-SNIC emulation,
     * §V-C). When false, stateful functions run "like stateless ones"
     * — the paper's §VII-B methodology check.
     */
    bool coherent_state = true;

    SplitMode split_mode = SplitMode::TokenBucket;
    TrafficMonitor::Config monitor;
    LoadBalancingPolicy::Config lbp;

    /** SLB baseline parameters (Mode::Slb). */
    unsigned slb_cores = 4;
    double slb_fwd_th_gbps = 20.0;

    std::size_t frame_bytes = net::kMtuFrameBytes;
    std::uint64_t seed = 1;

    /** Scheduled fault events, times relative to run() start. */
    fault::FaultPlan faults;

    /** Degraded-mode watchdog (active in Mode::Hal only). */
    HealthWatchdog::Config watchdog;

    /** Stats-registry + packet-tracing knobs (off by default; turning
     *  them on must not change simulation results). */
    obs::ObsConfig obs;

    /** SLO monitoring (off by default; independent of `obs` so the
     *  RunResult SLO fields exist even with stats/tracing disabled). */
    obs::SloConfig slo;

    // --- named presets ------------------------------------------------
    // The paper's four standard operating points, so benches and
    // tests stop copy-pasting field assignments.

    /** The proposed system: HLB + LBP + host sleep (Mode::Hal). */
    static ServerConfig halDefault(
        funcs::FunctionId fn = funcs::FunctionId::Nat);

    /** Host baseline: every packet on the busy-polling host CPU. */
    static ServerConfig hostBaseline(
        funcs::FunctionId fn = funcs::FunctionId::Nat);

    /** SNIC baseline: every packet on the SNIC processor. */
    static ServerConfig snicBaseline(
        funcs::FunctionId fn = funcs::FunctionId::Nat);

    /** §IV software load balancer baseline (Mode::Slb). */
    static ServerConfig slbBaseline(
        funcs::FunctionId fn = funcs::FunctionId::Nat);

    /**
     * Check the whole configuration in one pass, returning every
     * violation (each naming the offending field) instead of stopping
     * at the first. Empty means valid. ServerSystem's constructor
     * throws std::invalid_argument joining all of them.
     */
    std::vector<std::string> validate() const;
};

/** The paper's metrics for one operating point. */
struct RunResult
{
    double offered_gbps = 0.0;       //!< average offered rate
    double delivered_gbps = 0.0;     //!< average response throughput
    double max_window_gbps = 0.0;    //!< max over 10 ms windows
    double p99_us = 0.0;
    double mean_us = 0.0;
    double system_power_w = 0.0;     //!< base + all dynamic
    double dynamic_power_w = 0.0;
    double energy_eff = 0.0;         //!< Gbps per watt (system)
    std::uint64_t sent = 0;
    std::uint64_t responses = 0;
    std::uint64_t drops = 0;
    /**
     * Packets still inside the server when the measurement window
     * closed (sent but neither answered nor dropped yet). They drain
     * afterwards and their latency still counts; surfacing the count
     * lets lossFraction() subtract them explicitly instead of
     * silently clamping a negative ratio.
     */
    std::uint64_t in_flight_at_window_end = 0;
    std::uint64_t snic_frames = 0;   //!< responses from the SNIC side
    std::uint64_t host_frames = 0;   //!< responses from the host side
    std::uint64_t slb_kept = 0;      //!< SLB: packets kept local
    std::uint64_t slb_forwarded = 0; //!< SLB: packets tx_burst'ed away
    double final_fwd_th_gbps = 0.0;

    // --- fault / degradation accounting ------------------------------
    std::uint64_t faults_injected = 0;   //!< fault events applied
    std::uint64_t faults_reverted = 0;   //!< transient faults healed
    std::uint64_t failovers = 0;         //!< watchdog left Normal
    std::uint64_t recoveries = 0;        //!< watchdog returned to Normal
    double degraded_us = 0.0;            //!< time outside Normal
    double time_to_recover_us = 0.0;     //!< last detect->recover span
    std::uint64_t failover_drops = 0;    //!< drops while degraded
    std::uint64_t ctrl_updates_dropped = 0; //!< lost LBP->FPGA messages

    // --- energy ledger (measurement window, §V-B / Fig. 3) -----------
    double energy_snic_cpu_j = 0.0;   //!< SNIC wimpy cores / accel feed
    double energy_snic_accel_j = 0.0; //!< SNIC accelerator block
    double energy_host_cpu_j = 0.0;   //!< host brawny cores / accel feed
    double energy_host_accel_j = 0.0; //!< host accelerator block
    double energy_extra_j = 0.0;      //!< HLB + LBP / SLB cores
    double energy_static_j = 0.0;     //!< idle-server baseline (194 W)
    double energy_total_j = 0.0;      //!< literal sum of the above
    double j_per_request = 0.0;       //!< energy_total_j / responses
    double j_per_gb = 0.0;            //!< energy_total_j per gigabit

    // --- SLO monitor (Table 2) ---------------------------------------
    double slo_target_p99_us = 0.0;      //!< 0 when monitoring is off
    double slo_worst_p99_us = 0.0;       //!< worst per-epoch p99
    std::uint64_t slo_epochs = 0;        //!< epochs in the window
    std::uint64_t slo_violation_epochs = 0; //!< epochs with p99 > target

    // --- fleet resilience layer (all zero for single-server runs) ----
    std::uint64_t fleet_backends = 0;    //!< backends in the fleet
    std::uint64_t fleet_retries = 0;     //!< client retransmissions
    std::uint64_t fleet_timeouts = 0;    //!< client attempt timeouts
    std::uint64_t fleet_duplicates = 0;  //!< late responses suppressed
    std::uint64_t fleet_sheds = 0;       //!< admission-control drops
    std::uint64_t fleet_requests_failed = 0; //!< retry budget exhausted
    std::uint64_t fleet_failovers = 0;   //!< health down-transitions
    std::uint64_t fleet_flows_migrated = 0; //!< pins moved on failover
    std::uint64_t fleet_drain_timeouts = 0; //!< drains written off
    std::uint64_t fleet_probes_failed = 0;  //!< failed health probes
    std::uint64_t fleet_backend_served_min = 0; //!< least-loaded backend
    std::uint64_t fleet_backend_served_max = 0; //!< most-loaded backend
    double energy_fleet_j = 0.0;         //!< sum of per-backend accounts

    // --- core-scaling governor (zero when not armed) ------------------
    std::uint64_t gov_epochs = 0;        //!< governor epochs (both procs)
    std::uint64_t gov_rebalances = 0;    //!< epochs that moved groups
    std::uint64_t gov_migrations = 0;    //!< flow-group moves
    std::uint64_t gov_parks = 0;         //!< cores parked
    std::uint64_t gov_unparks = 0;       //!< cores woken back up
    std::uint64_t gov_min_active_cores = 0; //!< sum of per-proc minima
    std::uint64_t gov_max_active_cores = 0; //!< sum of per-proc maxima

    /**
     * Schedule-into-past clamps on the run's event queue (release
     * builds clamp instead of asserting; see
     * EventQueue::pastClamps). Nonzero means a component computed a
     * delivery tick before now — a causality bug that debug builds
     * would have caught — so benches and tests gate on zero.
     */
    std::uint64_t past_clamps = 0;

    // --- distributed tracing / flight recorder (zero when off) --------
    std::uint64_t trace_spans = 0;       //!< span records written
    std::uint64_t fr_dumps = 0;          //!< flight-recorder dumps taken
    std::uint64_t fr_trigger_fault = 0;  //!< fault-injection triggers
    std::uint64_t fr_trigger_slo = 0;    //!< SLO epoch-violation triggers
    std::uint64_t fr_trigger_shed = 0;   //!< shed-watermark triggers
    std::uint64_t fr_trigger_gov = 0;    //!< governor-storm triggers

    /**
     * Loss fraction over the measurement window. Packets in flight at
     * the window boundary are accounted explicitly (they were neither
     * delivered nor lost when the window closed), so the ratio needs
     * no silent clamping: resolved = responses + in_flight, and only
     * a genuine shortfall counts as loss.
     */
    double
    lossFraction() const
    {
        if (sent == 0)
            return 0.0;
        const std::uint64_t resolved = responses + in_flight_at_window_end;
        if (resolved >= sent)
            return 0.0;
        return static_cast<double>(sent - resolved) /
               static_cast<double>(sent);
    }

    // --- serialization (the single emission point for benches) -------

    /** One JSON object with every field (no trailing newline). */
    void toJson(std::ostream &os) const;

    /** The same fields without the enclosing braces, for callers that
     *  splice extra keys (label, mode, ...) into the object. */
    void toJsonFields(std::ostream &os) const;

    /** One CSV data row matching csvHeader() (no trailing newline). */
    void toCsvRow(std::ostream &os) const;

    /** The CSV header row for toCsvRow() (no trailing newline). */
    static void csvHeader(std::ostream &os);

    /** Close the flight recorder's pending dumps at @p now and fill
     *  the trace/flight-recorder fields from @p obs (null = obs off,
     *  fields stay zero). Shared by the server and fleet systems. */
    void takeObsCounts(obs::Observability *obs, Tick now);
};

/**
 * The assembled server + client pair.
 */
class ServerSystem
{
  public:
    ServerSystem(EventQueue &eq, ServerConfig cfg);
    ~ServerSystem();

    ServerSystem(const ServerSystem &) = delete;
    ServerSystem &operator=(const ServerSystem &) = delete;

    /**
     * Drive @p rate through the system.
     *
     * @param rate            offered-rate process (constant or trace)
     * @param warmup          excluded from all statistics
     * @param measure         measurement window
     * @param resample_epoch  how often the generator re-draws rate
     */
    RunResult run(std::unique_ptr<net::RateProcess> rate, Tick warmup,
                  Tick measure, Tick resample_epoch = 1 * kMs);

    // --- test/inspection hooks ---------------------------------------
    const ServerConfig &config() const { return cfg_; }
    funcs::NetworkFunction &function() { return *fn_; }
    proc::Processor *snicProcessor() { return snic_.get(); }
    proc::Processor *hostProcessor() { return host_.get(); }
    TrafficDirector *director() { return director_.get(); }
    TrafficMerger *merger() { return merger_.get(); }
    LoadBalancingPolicy *lbp() { return lbp_.get(); }
    SoftwareLoadBalancer *slb() { return slb_.get(); }
    HealthWatchdog *watchdog() { return watchdog_.get(); }
    nic::ESwitch *eswitch() { return eswitch_.get(); }
    net::Link *clientLink() { return clientLink_.get(); }
    net::Link *returnLink() { return returnLink_.get(); }
    coherence::CoherenceDomain *domain() { return domain_.get(); }
    net::Client &client() { return client_; }

    /** Null unless cfg.obs enabled stats or tracing. */
    obs::Observability *obs() { return obs_.get(); }
    const obs::Observability *obs() const { return obs_.get(); }

    /** Paper addressing: the identity clients talk to. */
    net::Ipv4Addr snicIp() const { return snicIp_; }
    net::Ipv4Addr hostIp() const { return hostIp_; }

  private:
    double totalDynamicW() const;
    std::uint64_t totalDrops() const;

    /** Build the obs facade, register the stats tree, attach tracer
     *  hooks (ctor tail; no-op unless cfg.obs enables something). */
    void buildObs();

    /** Instantiate the configured function (or pipeline). */
    static funcs::FunctionPtr makeFn(const ServerConfig &cfg);

    EventQueue &eq_;
    ServerConfig cfg_;
    Rng rng_;

    net::MacAddr clientMac_, snicMac_, hostMac_;
    net::Ipv4Addr clientIp_, snicIp_, hostIp_;

    funcs::FunctionPtr fn_;

    net::Client client_;
    std::unique_ptr<coherence::CoherenceDomain> domain_;

    // Egress path (server -> client).
    std::unique_ptr<net::Link> returnLink_;
    std::unique_ptr<TrafficMerger> merger_;
    std::unique_ptr<nic::FixedDelay> mergerDelay_;    //!< HLB egress hop
    std::unique_ptr<nic::FixedDelay> hostTxDelay_;    //!< PCIe back-hop

    // Processors.
    std::unique_ptr<proc::Processor> snic_;
    std::unique_ptr<proc::Processor> host_;

    // Ingress path (client -> processors).
    std::unique_ptr<nic::ESwitch> eswitch_;
    std::unique_ptr<nic::FixedDelay> snicPathDelay_;
    std::unique_ptr<nic::FixedDelay> hostPathDelay_;
    std::unique_ptr<TrafficMonitor> monitor_;
    std::unique_ptr<TrafficDirector> director_;
    std::unique_ptr<nic::FixedDelay> hlbDelay_;
    std::unique_ptr<LoadBalancingPolicy> lbp_;
    std::unique_ptr<SoftwareLoadBalancer> slb_;
    std::unique_ptr<net::Link> clientLink_;

    // Fault-tolerance machinery.
    std::unique_ptr<HealthWatchdog> watchdog_;
    std::unique_ptr<fault::FaultInjector> injector_;

    /** SLB balancer cores, the LBP core, and the HLB itself. */
    proc::PowerMeter extraPower_;

    /** Per-component energy accounts over the measurement window
     *  (always on; pull-based, nothing on the hot path). */
    obs::EnergyLedger energy_;

    /** SLO violation-window monitor (null unless cfg.slo enabled). */
    std::unique_ptr<obs::SloMonitor> slo_;

    /** Stats registry + trace ring + flight recorder (null when
     *  disabled). */
    std::unique_ptr<obs::Observability> obs_;

    net::PacketSink *ingress_ = nullptr;
};

} // namespace halsim::core

#endif // HALSIM_CORE_SERVER_HH
