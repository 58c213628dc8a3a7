/**
 * @file
 * Observability facade: one object bundling the stats registry, the
 * trace ring, the flight recorder, and the periodic probe sampler,
 * owned by ServerSystem / FleetSystem when their `obs` config
 * enables it.
 *
 * Determinism contract: turning observability on must not change
 * simulation results. The sampler is a read-only CallbackEvent (no
 * RNG draws, no packet mutation), trace records are read-only
 * observations, and all registry reads happen either lazily at
 * serialization time or inside the sampler — so RunResult stays
 * byte-identical with obs on or off (proved by test_determinism).
 */

#ifndef HALSIM_OBS_OBS_HH
#define HALSIM_OBS_OBS_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/registry.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"

namespace halsim::obs {

/** Per-run observability knobs (part of ServerConfig and
 *  FleetConfig). */
struct ObsConfig
{
    /** Register + periodically sample the component stats tree. */
    bool stats = false;

    /** Record sampled packet lifecycles into the trace ring. */
    bool trace = false;

    /** Record sampled request-scoped spans and fleet marks into the
     *  same trace ring. */
    bool spans = false;

    /** Trace packets and requests whose id is a multiple of this
     *  (1 = all). */
    std::uint64_t trace_sample_every = 64;

    /** Run the always-on flight recorder (black-box capture). */
    bool flightrec = false;

    /** Flight-recorder ring capacity in records. */
    std::uint32_t fr_capacity = 1u << 14;

    /** Flight-recorder capture window after a trigger. */
    Tick fr_post = 100 * kUs;

    /** Bitmask of armed FrTrigger bits (frTriggerBit()). */
    std::uint32_t fr_armed = 0;

    bool
    enabled() const
    {
        return stats || trace || spans || flightrec;
    }

    /** Every violation, each naming its `obs.*` field; empty when
     *  valid. Fields of a feature that is off are not checked. */
    std::vector<std::string> validate() const;
};

class Observability
{
  public:
    Observability(EventQueue &eq, const ObsConfig &cfg);

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;
    ~Observability();

    const ObsConfig &config() const { return cfg_; }

    StatsRegistry &registry() { return reg_; }
    const StatsRegistry &registry() const { return reg_; }

    /** The trace ring for packet stages; null unless cfg.trace. */
    SpanTracer *tracer() { return cfg_.trace ? ring_.get() : nullptr; }
    const SpanTracer *tracer() const
    {
        return cfg_.trace ? ring_.get() : nullptr;
    }

    /** The same ring for request spans and fleet marks; null unless
     *  cfg.spans. */
    SpanTracer *spans() { return cfg_.spans ? ring_.get() : nullptr; }
    const SpanTracer *spans() const
    {
        return cfg_.spans ? ring_.get() : nullptr;
    }

    /** Null unless cfg.flightrec. */
    FlightRecorder *flightRecorder() { return flightRec_.get(); }
    const FlightRecorder *flightRecorder() const
    {
        return flightRec_.get();
    }

    /**
     * Begin epoch-periodic probe sampling, stopping after the last
     * epoch at or before @p until (no-op unless cfg.stats). The first
     * sample fires one epoch from now.
     */
    void startSampling(Tick until);

    /** Cancel any pending sample. */
    void stopSampling();

    /**
     * Open the measurement window: zero the registry, drop warmup
     * records from the trace ring and flight recorder, and start the
     * probe sampler until @p until.
     */
    void beginWindow(Tick until);

    /**
     * Register the flight recorder's health counters under
     * @p prefix (e.g. "server.flightrec"; no-op unless cfg.stats).
     * Null-safe reads, so the paths exist and read zero while the
     * recorder is off.
     */
    void registerFlightRecStats(const std::string &prefix);

    void writeStatsJson(std::ostream &os) const { reg_.writeJson(os); }

  private:
    void onSample();

    EventQueue &eq_;
    ObsConfig cfg_;
    StatsRegistry reg_;
    std::unique_ptr<SpanTracer> ring_;
    std::unique_ptr<FlightRecorder> flightRec_;
    CallbackEvent sampleEvent_;
    Tick until_ = 0;
};

} // namespace halsim::obs

#endif // HALSIM_OBS_OBS_HH
