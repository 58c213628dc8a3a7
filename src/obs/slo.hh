/**
 * @file
 * SLO monitor: deterministic rolling-window latency-quantile tracking
 * against a configurable p99 target (the SLO analysis behind the
 * paper's Table 2), plus tail-sample attribution to the dominant
 * queueing stage from the trace ring's Stage records.
 *
 * The monitor tiles the measurement window into fixed tumbling epochs
 * and keeps ONE preallocated fixed-bin histogram that is closed and
 * re-armed at each epoch boundary — rollover is detected
 * arithmetically inside record(), so the monitor schedules no events
 * and cannot perturb event order (turning it on leaves every other
 * RunResult field byte-identical; test_determinism holds this). An
 * epoch violates the SLO when its p99 exceeds the target.
 *
 * record() is hot-path-safe: increments, compares, and Histogram
 * bin stores only; the epoch-close bookkeeping runs once per epoch,
 * not per packet.
 */

#ifndef HALSIM_OBS_SLO_HH
#define HALSIM_OBS_SLO_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace halsim::obs {

class SpanTracer;

/** Per-run SLO knobs (part of ServerConfig, independent of
 *  ObsConfig so RunResult SLO fields exist with obs off). */
struct SloConfig
{
    /** p99 latency target in microseconds; 0 disables monitoring. */
    double target_p99_us = 0.0;

    /** Tumbling violation-window length. */
    Tick epoch = 5 * kMs;

    bool enabled() const { return target_p99_us > 0.0; }
};

/**
 * Tail-latency attribution: how many over-target traced packets were
 * dominated by each lifecycle stage (Ingress→RingEnqueue dispatch,
 * RingEnqueue→ServiceStart queue wait, ServiceStart→ServiceEnd
 * service, ServiceEnd→Egress egress).
 */
struct SloAttribution
{
    std::uint64_t dispatch = 0;
    std::uint64_t queue_wait = 0;
    std::uint64_t service = 0;
    std::uint64_t egress = 0;
    /** Traced packets with a complete span that exceeded the target. */
    std::uint64_t attributed = 0;
};

/**
 * Walk the ring's retained Stage records (other kinds are skipped),
 * reconstruct per-packet stage spans, and attribute each packet whose in-server span exceeds
 * @p target_ticks to its slowest stage. Serialization-time only
 * (allocates); deterministic for a given ring content.
 */
SloAttribution attributeTail(const SpanTracer &ring,
                             Tick target_ticks);

class SloMonitor
{
  public:
    explicit SloMonitor(const SloConfig &cfg);

    SloMonitor(const SloMonitor &) = delete;
    SloMonitor &operator=(const SloMonitor &) = delete;

    const SloConfig &config() const { return cfg_; }

    /**
     * Start the epoch clock at the measurement boundary; samples at
     * or after @p end are ignored (the post-window drain must not
     * open extra epochs).
     */
    void beginWindow(Tick start, Tick end);

    /** Record one response latency observed at @p now. */
    // halint: hotpath
    void
    record(Tick now, Tick latency)
    {
        if (now >= windowEnd_ || now < epochStart_)
            return;
        if (now >= epochStart_ + cfg_.epoch)
            rollTo(now);
        epochHist_.sample(static_cast<double>(latency));
    }

    /** Close every remaining epoch up to the window end. */
    void finishWindow();

    // --- reads (valid after finishWindow) ---------------------------

    /** Epochs elapsed in the window (including empty ones). */
    std::uint64_t epochs() const { return epochs_; }

    /** Epochs whose p99 exceeded the target. */
    std::uint64_t violationEpochs() const { return violations_; }

    /** Largest per-epoch p99 seen, microseconds. */
    double worstEpochP99Us() const { return worstP99Us_; }

    double targetP99Us() const { return cfg_.target_p99_us; }

    /**
     * Observer called when an epoch closes over target, with the
     * closing epoch's end tick and its p99 in microseconds. Fires
     * from inside closeEpoch(), so the callback must be read-only
     * with respect to the simulation (the flight-recorder trigger
     * is; see DESIGN.md §16).
     */
    void
    setOnViolation(std::function<void(Tick, double)> cb)
    {
        onViolation_ = std::move(cb);
    }

  private:
    /** Close epochs until @p now falls inside the current one. */
    void rollTo(Tick now);
    void closeEpoch();

    SloConfig cfg_;
    Tick targetTicks_ = 0;
    Tick windowStart_ = 0;
    Tick windowEnd_ = 0;
    Tick epochStart_ = 0;
    Histogram epochHist_;
    std::uint64_t epochs_ = 0;
    std::uint64_t violations_ = 0;
    double worstP99Us_ = 0.0;
    bool finished_ = false;
    std::function<void(Tick, double)> onViolation_;
};

/** Null-check hook matching tracePacket(): one predicted branch when
 *  monitoring is disabled. */
inline void
sloRecord(SloMonitor *m, Tick now, Tick latency)
{
    if (m != nullptr)
        m->record(now, latency);
}

} // namespace halsim::obs

#endif // HALSIM_OBS_SLO_HH
