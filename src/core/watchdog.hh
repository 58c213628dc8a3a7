/**
 * @file
 * Health watchdog and degraded-mode state machine.
 *
 * Every epoch the watchdog samples processor liveness and ring
 * occupancy and the freshness of the LBP->FPGA control channel, then
 * drives the director into (or out of) a degraded mode:
 *
 *  - HostDown:  the host processor stopped — clamp Fwd_Th to the
 *    maximum so all traffic stays on the SNIC instead of being
 *    diverted into a black hole;
 *  - SnicDown:  the SNIC cores stopped — pin Fwd_Th to zero so the
 *    director diverts everything to the host, and wake its sleeping
 *    cores immediately so the first diverted packets do not pay the
 *    per-packet wake penalty;
 *  - AllDown:   both processors stopped; route to the host (it is at
 *    least as likely to return) and keep sampling for recovery;
 *  - LbpSilent: neither updates nor heartbeats arrived within the
 *    staleness bound — the policy core or its channel is gone; fall
 *    back to a conservative failsafe threshold rather than trusting
 *    a stale operating point.
 *
 * When health returns the watchdog hands control back to the LBP by
 * restoring its last-known-good threshold. Failovers, recoveries,
 * time spent degraded, and packets lost while degraded are tracked
 * for RunResult.
 */

#ifndef HALSIM_CORE_WATCHDOG_HH
#define HALSIM_CORE_WATCHDOG_HH

#include <cstdint>
#include <functional>

#include "core/hlb.hh"
#include "core/lbp.hh"
#include "proc/processor.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"

namespace halsim::core {

/** Degraded-mode states. */
enum class HealthState : std::uint8_t
{
    Normal,
    HostDown,
    SnicDown,
    AllDown,
    LbpSilent,
};

const char *healthStateName(HealthState s);

class HealthWatchdog
{
  public:
    /** Liveness/occupancy sampling period. */
    static constexpr Tick kEpoch = 200 * kUs;
    /** Control channel silent longer than this => LbpSilent. */
    static constexpr Tick kLbpStalenessBound = 1 * kMs;
    /** Threshold applied while HostDown (keep all on the SNIC). */
    static constexpr double kHostDownFwdGbps = kMaxFwdThGbps;
    /** Threshold applied while SnicDown (divert all to host). */
    static constexpr double kSnicDownFwdGbps = 0.0;

    struct Stats
    {
        std::uint64_t epochs = 0;
        /** Transitions out of Normal. */
        std::uint64_t failovers = 0;
        /** Transitions back to Normal. */
        std::uint64_t recoveries = 0;
        /** Total time spent outside Normal. */
        Tick degraded = 0;
        /** Detect -> recover latency of the last closed incident. */
        Tick last_recovery_latency = 0;
        /** Drops accumulated while outside Normal. */
        std::uint64_t degraded_drops = 0;
        /** Peak Rx-ring occupancy observed across both processors. */
        std::uint32_t peak_ring_occupancy = 0;
    };

    /**
     * Any of @p snic / @p host / @p director / @p lbp may be null;
     * the corresponding checks and actions are skipped.
     * @p lbp_failsafe_gbps is the threshold applied while LbpSilent.
     * @p drop_count samples the system-wide drop total, used to
     * attribute losses to degraded intervals.
     */
    HealthWatchdog(EventQueue &eq, double lbp_failsafe_gbps,
                   proc::Processor *snic,
                   proc::Processor *host, TrafficDirector *director,
                   LoadBalancingPolicy *lbp,
                   std::function<std::uint64_t()> drop_count);
    ~HealthWatchdog();

    HealthWatchdog(const HealthWatchdog &) = delete;
    HealthWatchdog &operator=(const HealthWatchdog &) = delete;

    void start();

    /** Stop sampling; closes any open degraded interval so the stats
     *  account for an outage still in progress at run end. */
    void stop();

    HealthState state() const { return state_; }
    const Stats &stats() const { return stats_; }

    /** Zero the counters for a fresh run (state machine state and any
     *  open degraded interval are preserved). */
    void resetStats() { stats_ = Stats{}; }

  private:
    void tick();
    void transition(HealthState next);
    void applyActions(HealthState s);
    std::uint64_t sampleDrops() const;

    EventQueue &eq_;
    double lbpFailsafeGbps_;
    proc::Processor *snic_;
    proc::Processor *host_;
    TrafficDirector *director_;
    LoadBalancingPolicy *lbp_;
    std::function<std::uint64_t()> dropCount_;

    CallbackEvent tickEvent_;
    HealthState state_ = HealthState::Normal;
    Stats stats_;
    bool intervalOpen_ = false;
    Tick degradedSince_ = 0;
    std::uint64_t dropsAtEntry_ = 0;
};

} // namespace halsim::core

#endif // HALSIM_CORE_WATCHDOG_HH
