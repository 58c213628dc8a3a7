/**
 * @file
 * Processor models: DPDK poll-mode CPU cores, accelerator pipelines,
 * sleep-state management, and dynamic-power accounting. One Processor
 * instance stands for "the SNIC processor" or "the host processor" of
 * the paper: N polling cores fed by RSS-spread descriptor rings, or
 * an accelerator pipeline for the hardware-accelerated functions,
 * with per-function service costs from the calibration tables.
 */

#ifndef HALSIM_PROC_PROCESSOR_HH
#define HALSIM_PROC_PROCESSOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coherence/domain.hh"
#include "funcs/calibration.hh"
#include "funcs/function.hh"
#include "net/packet.hh"
#include "nic/dpdk_ring.hh"
#include "nic/eswitch.hh"
#include "obs/hooks.hh"
#include "proc/governor.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace halsim::obs {
class StatsRegistry;
} // namespace halsim::obs

namespace halsim::proc {

/**
 * Dynamic voltage/frequency scaling for the SNIC CPU (§VIII "Impact
 * of SNIC processor's DVFS on the effectiveness of LBP"). A simple
 * occupancy-driven governor: scale frequency down while the rings
 * stay near-empty, up when they back up. Service time scales as 1/f,
 * dynamic power as f^2 (voltage tracks frequency). Its epoch, step
 * and watermarks are processor.cc constants.
 */
struct DvfsPolicy
{
    bool enabled = false;
};

/**
 * The server's switchable power management, grouped in one
 * sub-struct: SNIC-CPU DVFS (§VIII) and the adaptive core-scaling
 * governor (ROADMAP item 3). Host-CPU sleep states (§V-B) are not a
 * switch: the host sleeps under HAL and busy-polls otherwise.
 */
struct PowerPolicy
{
    /** Occupancy-driven DVFS on the SNIC CPU (off by default). */
    DvfsPolicy snic_dvfs;

    /** Core-scaling governor, armed on both processors when enabled. */
    GovernorPolicy governor;
};

/** DPDK Rx descriptors per poll-core ring (a power of two). */
inline constexpr std::uint32_t kRingDescriptors = 512;

/**
 * Aggregated dynamic-power meter (W) for one processor.
 */
class PowerMeter
{
  public:
    explicit PowerMeter(EventQueue &eq) : eq_(eq) {}

    /** Add (or with negative @p dw, remove) a power contribution. */
    void add(double dw) { tw_.set(tw_.value() + dw, eq_.now()); }

    double currentW() const { return tw_.value(); }

    /** Time-averaged watts since the last reset. */
    double averageW() const { return tw_.average(eq_.now()); }

    /** Integrated energy since the last reset, joules. */
    double
    joules() const
    {
        return tw_.integral(eq_.now()) / static_cast<double>(kSec);
    }

    void reset() { tw_.resetAt(eq_.now()); }

  private:
    EventQueue &eq_;
    TimeWeighted tw_;
};

/**
 * One poll-mode core: services its descriptor ring in FIFO order,
 * executing the network function for real and charging the
 * calibrated service time plus any coherent-state latency.
 */
class PollCore
{
  public:
    struct Config
    {
        funcs::FunctionProfile profile;
        /** DPDK power management (§V-B): sleep after an idle spell
         *  and pay a wake-up penalty on the next packet. */
        bool sleep = false;
        coherence::NodeId node = coherence::NodeId::Snic;
        net::Processor tag = net::Processor::SnicCpu;
        net::MacAddr service_mac;
        net::Ipv4Addr service_ip;
        /** Shared frequency scale set by the DVFS governor (null =
         *  fixed nominal frequency). */
        const double *freq_scale = nullptr;
    };

    PollCore(EventQueue &eq, Config cfg, nic::DpdkRing &ring,
             funcs::NetworkFunction &fn,
             coherence::CoherenceDomain *domain, net::PacketSink &tx,
             PowerMeter &power);
    ~PollCore();

    PollCore(const PollCore &) = delete;
    PollCore &operator=(const PollCore &) = delete;

    /** Ring notification: new packet while the ring was empty. */
    void onWork();

    /**
     * Fault hook: a stalled core stops servicing its ring (the ring
     * backs up and tail-drops) while drawing @p power_frac of active
     * power — 1.0 models a busy-wait hang, 0.0 a fail-stop crash. An
     * in-flight packet still completes. Unstalling resumes from the
     * ring backlog.
     */
    void setStalled(bool stalled, double power_frac = 1.0);

    bool stalled() const { return stalled_; }

    /** Fault hook: run at @p f of nominal speed (0 < f; 1 = nominal). */
    void
    setSpeedFactor(double f)
    {
        speedFactor_ = f > 0.0 ? f : 1.0;
    }

    /**
     * Recovery hook: wake a sleeping core immediately, without the
     * per-packet wake penalty — the watchdog uses this when failover
     * redirects the full load at a processor whose cores sleep.
     */
    void forceWake();

    /**
     * Governor hook (COREIDLE mechanism): a parked core drops into
     * deep sleep — zero watts — as soon as it is idle with an empty
     * ring, even without power management; a busy or backlogged core
     * drains its ring first, then sleeps. Stray packets still wake
     * it (with the wake penalty), so nothing is ever stranded.
     * Unparking is completed by the governor's forceWake() call.
     */
    void setParked(bool parked);

    bool parked() const { return parked_; }

    std::uint64_t processedFrames() const { return frames_; }
    std::uint64_t processedBytes() const { return bytes_; }
    bool sleeping() const { return sleeping_; }

    /** Fraction of time spent actively processing since reset. */
    double utilization() const;

    /**
     * Integrated dynamic energy of this core since construction,
     * joules. Monotone (never reset); window accounting is done by
     * snapshot differencing in the energy ledger, so warmup resets
     * cannot bias it.
     */
    double joulesNow() const;

    /**
     * Busy time integrated since construction, seconds. Monotone
     * (never reset, unlike utilization()'s window), so the governor
     * can difference it per epoch across the warmup reset.
     */
    double busySecondsNow() const;

    /** Absolute watts currently charged by this core. */
    double currentW() const { return currentW_; }

    /** Attach the trace ring: dequeue-to-service records
     *  ServiceStart and completion ServiceEnd, arg = @p core index. */
    void
    setTrace(obs::SpanTracer *t, std::uint8_t lane, std::uint32_t core)
    {
        trace_ = t;
        traceLane_ = lane;
        traceCore_ = core;
    }

    void resetStats();

  private:
    void startNext();
    void finish(net::PacketPtr pkt);
    void goIdle();
    void maybeSleep();

    EventQueue &eq_;
    Config cfg_;
    nic::DpdkRing &ring_;
    funcs::NetworkFunction &fn_;
    coherence::CoherenceDomain *domain_;
    net::PacketSink &tx_;
    PowerMeter &power_;

    CallbackEvent sleepEvent_;
    /** Service completion for the single in-flight packet: intrusive
     *  (recycled in place) instead of a per-service one-shot. */
    CallbackEvent finishEvent_;
    net::PacketPtr inflight_;
    bool busy_ = false;
    bool sleeping_ = false;    //!< deep sleep (wake penalty applies)
    bool parked_ = false;      //!< governor-parked (consolidation)
    bool stalled_ = false;     //!< fault-injected hang/crash
    double stallFrac_ = 1.0;   //!< power fraction while stalled
    double speedFactor_ = 1.0; //!< fault-injected slowdown (1 = nominal)
    double powerLevel_ = 0.0;  //!< duty-cycle fraction
    double currentW_ = 0.0;    //!< absolute watts currently charged
    std::uint64_t frames_ = 0;
    std::uint64_t bytes_ = 0;
    TimeWeighted busyTime_;   //!< 1.0 while processing, for utilization
    TimeWeighted busyMono_;   //!< monotone busy mirror (governor signal)
    TimeWeighted wattsTw_;    //!< per-core watts mirror (energy ledger)

    // Observability (null/inert unless attached).
    obs::SpanTracer *trace_ = nullptr;
    std::uint8_t traceLane_ = 0;
    std::uint32_t traceCore_ = 0;

    void setPowerLevel(double frac);
    double idleLevel() const;
    double freqScale() const;
};

/**
 * Accelerator pipeline (REM / crypto / compression units, §II-A):
 * bounded input queue, serialization at the calibrated rate, fixed
 * pipeline latency. The real function work still executes per packet.
 */
class Accelerator
{
  public:
    /** Input queue depth in descriptors. */
    static constexpr std::uint32_t kQueueDepth = 1024;
    /** Throughput fraction the feeding cores sustain in software
     *  when the accelerator fails (§ fault model). */
    static constexpr double kFallbackFrac = 0.15;

    struct Config
    {
        funcs::FunctionProfile profile;
        coherence::NodeId node = coherence::NodeId::Snic;
        net::Processor tag = net::Processor::SnicAccel;
        net::MacAddr service_mac;
        net::Ipv4Addr service_ip;
        bool sleep = false;     //!< applied to the feeding cores
        /** Power of the polling cores feeding the accelerator (W). */
        double feed_power_w = 0.0;
        /** Response attribution while running the software fallback. */
        net::Processor fallback_tag = net::Processor::SnicCpu;
    };

    Accelerator(EventQueue &eq, Config cfg,
                funcs::NetworkFunction &fn,
                coherence::CoherenceDomain *domain, net::PacketSink &tx,
                PowerMeter &power);
    ~Accelerator();

    Accelerator(const Accelerator &) = delete;
    Accelerator &operator=(const Accelerator &) = delete;

    /** Input port. */
    net::PacketSink &input() { return queue_; }

    std::uint32_t occupancy() const { return queue_.occupancy(); }
    std::uint64_t drops() const { return queue_.drops(); }
    std::uint64_t processedFrames() const { return frames_; }
    std::uint64_t processedBytes() const { return bytes_; }

    /**
     * Fault hook: the accelerator pipeline dies and the feeding cores
     * take over in software at kFallbackFrac of the accelerated rate
     * (no fixed pipeline latency, responses tagged as CPU-processed,
     * the dead unit draws nothing while the cores stay hot).
     */
    void setFailed(bool failed);

    bool accelFailed() const { return failed_; }

    /** Fault hook: fail-stop — the input queue drops every arrival. */
    void setDead(bool dead) { queue_.setDisabled(dead); }

    bool dead() const { return queue_.disabled(); }

    /**
     * Integrated energy split since construction, joules: the cores
     * feeding the pipeline vs. the accelerator block itself (a failed
     * accelerator integrates nothing while the cores stay hot). Both
     * are monotone; the energy ledger windows them by snapshots.
     */
    double feedJoulesNow() const;
    double accelJoulesNow() const;

    /** Current watts split matching the joules split. */
    double feedCurrentW() const { return feedTw_.value(); }
    double accelCurrentW() const { return accelTw_.value(); }

    /** Attach the trace ring: the input queue records
     *  RingEnqueue/Drop on @p ring_lane; pipeline entry and exit
     *  record ServiceStart/ServiceEnd on @p core_lane. */
    void
    setTrace(obs::SpanTracer *t, std::uint8_t ring_lane,
             std::uint8_t core_lane)
    {
        queue_.setTrace(t, ring_lane, &eq_);
        trace_ = t;
        traceLane_ = core_lane;
    }

    void resetStats();

  private:
    void pump();
    void finish(net::PacketPtr pkt);

    EventQueue &eq_;
    Config cfg_;
    funcs::NetworkFunction &fn_;
    coherence::CoherenceDomain *domain_;
    net::PacketSink &tx_;
    PowerMeter &power_;

    nic::DpdkRing queue_;
    CallbackEvent sleepEvent_;
    bool inSlot_ = false;
    bool busyPipeline_ = false;
    bool deepSleep_ = false;
    bool failed_ = false;       //!< software fallback active
    double powerLevel_ = 0.0;   //!< fraction of (feed + accel) power
    double currentW_ = 0.0;     //!< absolute watts currently charged
    TimeWeighted feedTw_;       //!< feeding-core watts (energy ledger)
    TimeWeighted accelTw_;      //!< accelerator watts (energy ledger)
    std::uint64_t frames_ = 0;
    std::uint64_t bytes_ = 0;

    // Observability (null/inert unless attached).
    obs::SpanTracer *trace_ = nullptr;
    std::uint8_t traceLane_ = 0;

    void setPowerLevel(double frac);
    double idleLevel() const;
    double activeBlockW() const;
};

/**
 * A complete processor: the unit HAL balances load between.
 */
class Processor
{
  public:
    struct Config
    {
        funcs::Platform platform = funcs::Platform::SnicBf2;
        funcs::FunctionProfile profile;
        unsigned cores = 8;
        /** DPDK power management on the cores (see PollCore). */
        bool sleep = false;
        DvfsPolicy dvfs;
        /** Core-scaling governor; ignored in accelerator mode (a
         *  pipeline has no core count to scale). */
        GovernorPolicy governor;
        coherence::NodeId node = coherence::NodeId::Snic;
        net::MacAddr service_mac;
        net::Ipv4Addr service_ip;
    };

    Processor(EventQueue &eq, Config cfg, funcs::NetworkFunction &fn,
              coherence::CoherenceDomain *domain, net::PacketSink &tx);
    ~Processor();

    /** Where the eSwitch delivers this processor's packets. */
    net::PacketSink &input();

    /** Max Rx-ring occupancy (the LBP's RxQ_occ signal). */
    std::uint32_t maxRingOccupancy() const;

    /** Frames/bytes completed (the LBP's SNIC_TP signal). */
    std::uint64_t processedFrames() const;
    std::uint64_t processedBytes() const;

    /** Packets tail-dropped at full rings/queues. */
    std::uint64_t drops() const;

    /** Average dynamic watts since the last reset. */
    double averageDynamicW() const { return power_.averageW(); }

    double currentDynamicW() const { return power_.currentW(); }

    // --- energy-ledger taps (monotone since construction; the
    // ledger windows them by snapshot differencing) ------------------

    /** CPU-side dynamic energy, joules: the poll cores, or in accel
     *  mode the cores feeding the pipeline. */
    double cpuJoulesNow() const;

    /** Accelerator-block dynamic energy, joules (0 in CPU mode). */
    double accelJoulesNow() const;

    /** Current watts matching the cpu/accel joules split. */
    double cpuCurrentW() const;
    double accelCurrentW() const;

    /** Poll cores (0 in accel mode), for per-core attribution. */
    unsigned coreCount() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** One core's monotone dynamic energy, joules (energy ledger). */
    double coreJoulesNow(unsigned idx) const;

    /** One core's currently-charged watts. */
    double coreCurrentW(unsigned idx) const;

    // --- core-scaling governor ---------------------------------------

    /** True when the governor is armed on this processor. */
    bool hasGovernor() const { return governor_ != nullptr; }

    /** The governor itself (null when static); span attachment. */
    CoreGovernor *coreGovernor() { return governor_.get(); }

    /**
     * Cores currently serving traffic: the governor's active set, or
     * the configured count when static. The LBP's capacity signal.
     */
    unsigned governorActiveCores() const;

    std::uint64_t governorEpochs() const;
    std::uint64_t governorRebalances() const;
    std::uint64_t governorMigrations() const;
    std::uint64_t governorParks() const;
    std::uint64_t governorUnparks() const;
    unsigned governorMinActive() const;
    unsigned governorMaxActive() const;

    /**
     * Register this processor's stats under @p prefix
     * (`prefix.coreN.busy_frac`, `prefix.ringN.occupancy`, ...) and
     * attach the trace ring to its rings and cores. Either pointer
     * may be null; the corresponding hooks stay inert.
     */
    void attachObs(obs::StatsRegistry *reg, obs::SpanTracer *tracer,
                   const std::string &prefix, std::uint8_t ring_lane,
                   std::uint8_t core_lane);

    void resetStats();

    const Config &config() const { return cfg_; }

    bool usesAccel() const { return accel_ != nullptr; }

    /** Current DVFS frequency scale (1.0 when DVFS is off). */
    double dvfsScale() const { return freqScale_; }

    // --- fault / recovery hooks --------------------------------------

    /** Stall or resume one core (no-op for out-of-range @p idx). */
    void setCoreStalled(unsigned idx, bool stalled,
                        double power_frac = 1.0);

    /** Stall or resume every core at @p power_frac of active power. */
    void stallAll(bool stalled, double power_frac = 1.0);

    /**
     * Fail-stop crash: every core stops and draws nothing (accel
     * mode: the input queue drops all arrivals). Packets already in
     * the rings are stranded until restore().
     */
    void fail();

    /** Undo fail(): cores resume from their ring backlog. */
    void restore();

    /** True after fail() until restore(). */
    bool failed() const { return failed_; }

    /** Cores not currently stalled (accel mode: 0 or cfg.cores). */
    unsigned aliveCores() const;

    /**
     * Liveness as the watchdog sees it: can this processor make
     * forward progress? A degraded accelerator (software fallback)
     * is still alive; a fail-stopped one is not.
     */
    bool alive() const;

    /** Fault hook: all cores run at @p f of nominal speed. */
    void setSpeedFactor(double f);

    /** Wake every sleeping core immediately (failover fast path). */
    void forceWakeAll();

    /** Accelerator dies; feeding cores fall back to software. */
    void failAccelerator();

    /** Accelerator restored to the calibrated rate. */
    void repairAccelerator();

    /** True while the software fallback is serving. */
    bool accelDegraded() const;

  private:
    EventQueue &eq_;
    Config cfg_;
    PowerMeter power_;

    // CPU mode.
    std::vector<std::unique_ptr<nic::DpdkRing>> rings_;
    std::vector<std::unique_ptr<PollCore>> cores_;
    nic::RssDistributor rss_;

    // Governor (CPU mode, cfg.governor.enabled): the indirection
    // table replaces the static RSS spread as the input sink.
    std::unique_ptr<FlowGroupTable> groupTable_;
    std::unique_ptr<CoreGovernor> governor_;

    // Accel mode.
    std::unique_ptr<Accelerator> accel_;

    // DVFS governor state (CPU mode only).
    double freqScale_ = 1.0;
    CallbackEvent dvfsEvent_;

    bool failed_ = false;   //!< fail-stop state
    std::uint64_t statDropBase_ = 0;
};

} // namespace halsim::proc

#endif // HALSIM_PROC_PROCESSOR_HH
