/**
 * @file
 * Fleet load generator: a hardened client that emits real UDP
 * requests over a fixed flow population and survives backend
 * failures with timeouts, capped exponential backoff, bounded
 * retries, and duplicate suppression.
 *
 * Each request keeps one id across every retransmission; the pending
 * table resolves the first response and counts any later copy (a
 * late original racing a retry) as a suppressed duplicate, so
 * completions never double-count. End-to-end latency is measured
 * from the *first* transmission to the first response — retries make
 * the tail visible instead of hiding it.
 *
 * Accounting invariant (with the run drained to quiescence):
 *   sends() == completions() + duplicates() + losses-in-the-fleet,
 * where sends() counts attempts (first sends + retries). RunResult's
 * fleet drill test reconciles this exactly.
 */

#ifndef HALSIM_FLEET_CLIENT_HH
#define HALSIM_FLEET_CLIENT_HH

#include <cstdint>
#include <memory>
// halint: allow(HAL-W003) pending_ is find/insert/erase only, never iterated
#include <unordered_map>

#include "net/client.hh"
#include "net/packet.hh"
#include "net/traffic.hh"
#include "obs/hooks.hh"
#include "obs/slo.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/keyed_fifo.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace halsim::fleet {

class FleetClient : public net::PacketSink
{
  public:
    struct Config
    {
        net::FlowEndpoints endpoints;
        /** Fixed flow population; each request picks one flow
         *  uniformly (deterministic given the seed). */
        std::uint32_t flows = 512;
        std::size_t frame_bytes = net::kMtuFrameBytes;
        net::RetryPolicy retry;
        Tick resample_epoch = 1 * kMs;
        std::uint64_t seed = 1;
    };

    FleetClient(EventQueue &eq, Config cfg, net::PacketSink &sink);
    ~FleetClient();

    FleetClient(const FleetClient &) = delete;
    FleetClient &operator=(const FleetClient &) = delete;

    /** Emit new requests from now until @p until at the process
     *  rate. Retries continue past @p until but are bounded. */
    void start(std::unique_ptr<net::RateProcess> rate, Tick until);

    /** Stop emitting new requests (pending retries keep running). */
    void stop();

    /** Responses land here. */
    void accept(net::PacketPtr pkt) override;

    void setSlo(obs::SloMonitor *m) { slo_ = m; }

    /** Attach span/flight-recorder sinks (null = off): each sampled
     *  request gets a root Request span, per-attempt child spans,
     *  and Duplicate instants for suppressed late responses. */
    void
    attachSpans(obs::SpanTracer *spans, obs::FlightRecorder *fr,
                std::uint8_t lane)
    {
        spans_ = spans;
        fr_ = fr;
        spanLane_ = lane;
    }

    /** Mirror per-request attempt counts into a registry-owned
     *  histogram (window-scoped; resetAll clears it). */
    void setAttemptsSink(Histogram *h) { attemptsSink_ = h; }

    /** Override the rate-resample period (before start()). */
    void setResampleEpoch(Tick t) { cfg_.resample_epoch = t; }

    /** Restart the latency/throughput windows at the warmup
     *  boundary; monotone counters are snapshot-differenced. */
    void resetMeasurement();

    // --- counters (monotone) -------------------------------------------

    /** Attempts put on the wire (first sends + retries). */
    std::uint64_t sends() const { return sends_; }
    std::uint64_t sentBytes() const { return sentBytes_; }
    /** Distinct requests generated. */
    std::uint64_t uniqueRequests() const { return unique_; }
    std::uint64_t retries() const { return retries_; }
    /** Attempt timeouts observed (a request can time out several
     *  times before completing or failing). */
    std::uint64_t timeouts() const { return timeouts_; }
    /** Late responses suppressed by the id-based dedup. */
    std::uint64_t duplicates() const { return duplicates_; }
    /** Requests resolved by a first response. */
    std::uint64_t completions() const { return completions_; }
    /** Requests abandoned after the retry budget. */
    std::uint64_t failed() const { return failed_; }
    /** Requests still awaiting a response or retry. */
    std::uint64_t outstanding() const { return pending_.size(); }

    /**
     * Per-request attempt counts, sampled once per *resolved*
     * request (completion or abandonment) with the attempts that
     * request made. Monotone (never window-reset), so with the run
     * drained to quiescence attempts().sum() == sends() exactly —
     * the retry-side mirror of the sent/responses/drops ledger.
     */
    const Histogram &attempts() const { return attempts_; }

    // --- measurement window reads --------------------------------------

    double p99Us() const
    {
        return ticksToUs(static_cast<Tick>(latency_.p99()));
    }

    double meanUs() const
    {
        return latency_.mean() / static_cast<double>(kUs);
    }

    const Histogram &latency() const { return latency_; }

    /** Response throughput since the last reset, Gbps. */
    double deliveredGbps() const { return delivered_.gbpsAt(eq_.now()); }

    std::uint64_t deliveredBytes() const { return delivered_.bytes(); }

    const Config &config() const { return cfg_; }

  private:
    struct Pending
    {
        std::uint32_t flowHash = 0;
        unsigned retriesUsed = 0;
        /** Attempt number; a timeout for a superseded attempt is
         *  ignored. */
        unsigned attempt = 0;
        Tick firstTx = 0;
    };

    /** One armed attempt timeout: which attempt of which request. */
    struct Deadline
    {
        std::uint64_t id;
        unsigned attempt;
    };

    void emitOne();
    void resample();
    void sendAttempt(std::uint64_t id, Pending &p);
    /** False once the request resolved or moved to a later attempt;
     *  neither reverts, so a dead deadline stays dead. */
    bool live(const Deadline &d) const;
    void expireHead();
    void onTimeout(std::uint64_t id, unsigned attempt);
    void retransmit(std::uint64_t id);

    EventQueue &eq_;
    Config cfg_;
    net::PacketSink &sink_;
    std::unique_ptr<net::RateProcess> rate_;
    obs::SloMonitor *slo_ = nullptr;
    Rng rng_;

    CallbackEvent emitEvent_;
    CallbackEvent resampleEvent_;

    /**
     * Attempt timeouts, in send order. The timeout is one fixed
     * duration, so deadlines are nondecreasing and only the head sits
     * in the heap (timeoutEvent_, armed under the key reserved at
     * send time, as net::TimedChannel does). Dead heads are dropped
     * when re-arming, except the last entry: the drain still ends on
     * the latest deadline's tick, as it did with one event each.
     */
    KeyedFifo<Deadline> deadlines_;
    CallbackEvent timeoutEvent_;
    Tick until_ = 0;
    double rateGbps_ = 0.0;
    std::uint64_t nextId_ = 1;

    /** id -> request state; find/insert/erase only, never iterated
     *  (halint HAL-W003). Bounded by the retry budget: entries leave
     *  on completion or failure. */
    // halint: allow(HAL-W003) find/insert/erase only, never iterated
    std::unordered_map<std::uint64_t, Pending> pending_;

    std::uint64_t sends_ = 0;
    std::uint64_t sentBytes_ = 0;
    std::uint64_t unique_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t completions_ = 0;
    std::uint64_t failed_ = 0;

    Histogram latency_;
    RateMeter delivered_;
    /** Attempts per resolved request; lo/hi sized so integer counts
     *  up to the retry budget land in exact bins. */
    Histogram attempts_{1.0, 1024.0, 16};
    Histogram *attemptsSink_ = nullptr;

    obs::SpanTracer *spans_ = nullptr;
    obs::FlightRecorder *fr_ = nullptr;
    std::uint8_t spanLane_ = 0;
};

} // namespace halsim::fleet

#endif // HALSIM_FLEET_CLIENT_HH
