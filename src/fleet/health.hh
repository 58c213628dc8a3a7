/**
 * @file
 * Epoch-driven health checker with consecutive-failure/success
 * hysteresis, clocked entirely by the DES event queue (no wall time).
 *
 * Every kEpoch the checker probes each backend; a backend is marked
 * down only after kFall consecutive failed probes and back up only
 * after kRise consecutive successes. The hysteresis is what keeps a
 * backend oscillating around the threshold from thrashing failover:
 * a flap shorter than kFall epochs is absorbed silently, and the
 * worst-case transition rate is bounded by 1 per (kFall + kRise)
 * epochs (test_fleet locks this bound in).
 *
 * Probe loss (a fleet-scoped fault kind) is modeled here: an injected
 * impairment drops each probe with a given probability using the
 * injector's RNG, so lost probes look exactly like failed ones — the
 * false-positive path that makes hysteresis necessary.
 */

#ifndef HALSIM_FLEET_HEALTH_HH
#define HALSIM_FLEET_HEALTH_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "fleet/backend.hh"
#include "obs/hooks.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace halsim::fleet {

class HealthChecker
{
  public:
    static constexpr Tick kEpoch = 2 * kMs;  //!< probe period
    static constexpr unsigned kFall = 3;  //!< failures before down
    static constexpr unsigned kRise = 2;  //!< successes before up

    HealthChecker(EventQueue &eq, std::vector<Backend *> targets);
    ~HealthChecker();

    HealthChecker(const HealthChecker &) = delete;
    HealthChecker &operator=(const HealthChecker &) = delete;

    /** Called with the backend index on a down/up transition. */
    void setOnDown(std::function<void(unsigned)> fn)
    {
        onDown_ = std::move(fn);
    }

    void setOnUp(std::function<void(unsigned)> fn)
    {
        onUp_ = std::move(fn);
    }

    /** Attach span/flight-recorder sinks (null = off): down/up
     *  transitions emit HealthDown/HealthUp marks. */
    void
    attachSpans(obs::SpanTracer *spans, obs::FlightRecorder *fr,
                std::uint8_t lane)
    {
        spans_ = spans;
        fr_ = fr;
        spanLane_ = lane;
    }

    /** Probe every epoch from now until @p until. */
    void start(Tick until);

    void stop();

    // --- fault handles -------------------------------------------------

    /** Drop each probe with probability @p loss (using the
     *  injector's RNG); a lost probe counts as a failure. */
    void
    setProbeImpairment(double loss, Rng *rng)
    {
        probeLoss_ = loss;
        probeRng_ = rng;
    }

    void
    clearProbeImpairment()
    {
        probeLoss_ = 0.0;
        probeRng_ = nullptr;
    }

    // --- state / counters ----------------------------------------------

    /** Current verdict for a backend (true until kFall consecutive
     *  failures accumulate). */
    bool healthy(unsigned backend) const
    {
        return st_[backend].healthy;
    }

    std::uint64_t probesSent() const { return probesSent_; }
    std::uint64_t probesFailed() const { return probesFailed_; }
    std::uint64_t probesLost() const { return probesLost_; }
    std::uint64_t downTransitions() const { return downTransitions_; }
    std::uint64_t upTransitions() const { return upTransitions_; }

  private:
    struct State
    {
        bool healthy = true;
        unsigned consecFail = 0;
        unsigned consecOk = 0;
    };

    void probeAll();

    EventQueue &eq_;
    std::vector<Backend *> targets_;
    std::vector<State> st_;
    std::function<void(unsigned)> onDown_;
    std::function<void(unsigned)> onUp_;
    CallbackEvent probeEvent_;
    Tick until_ = 0;

    double probeLoss_ = 0.0;
    Rng *probeRng_ = nullptr;

    obs::SpanTracer *spans_ = nullptr;
    obs::FlightRecorder *fr_ = nullptr;
    std::uint8_t spanLane_ = 0;

    std::uint64_t probesSent_ = 0;
    std::uint64_t probesFailed_ = 0;
    std::uint64_t probesLost_ = 0;
    std::uint64_t downTransitions_ = 0;
    std::uint64_t upTransitions_ = 0;
};

} // namespace halsim::fleet

#endif // HALSIM_FLEET_HEALTH_HH
