#include "obs/obs.hh"

namespace halsim::obs {

namespace {

/** Probe sampling period. */
constexpr Tick kSampleEpoch = 1 * kMs;
/** Trace ring capacity in records (trace or spans on). */
constexpr std::uint32_t kTraceCapacity = 1u << 16;
/** Flight-recorder capture window before a trigger. */
constexpr Tick kFrPre = 200 * kUs;
/** At most this many flight-recorder dumps per run. */
constexpr std::uint32_t kFrMaxDumps = 4;

} // namespace

std::vector<std::string>
ObsConfig::validate() const
{
    std::vector<std::string> errors;
    auto fail = [&errors](std::string msg) {
        errors.push_back(std::move(msg));
    };
    if ((trace || spans) && trace_sample_every == 0)
        fail("obs.trace_sample_every must be > 0 when obs.trace or "
             "obs.spans is on");
    if (flightrec && fr_capacity == 0)
        fail("obs.fr_capacity must be > 0 when obs.flightrec is on");
    return errors;
}

Observability::Observability(EventQueue &eq, const ObsConfig &cfg)
    : eq_(eq), cfg_(cfg)
{
    if (cfg_.trace || cfg_.spans) {
        ring_ = std::make_unique<SpanTracer>(SpanTracer::Config{
            kTraceCapacity, cfg_.trace_sample_every});
    }
    if (cfg_.flightrec) {
        FlightRecorder::Config fc;
        fc.capacity = cfg_.fr_capacity;
        fc.pre = kFrPre;
        fc.post = cfg_.fr_post;
        fc.armed = cfg_.fr_armed;
        fc.max_dumps = kFrMaxDumps;
        flightRec_ = std::make_unique<FlightRecorder>(eq_, fc);
    }
    sampleEvent_.setCallback([this] { onSample(); });
}

Observability::~Observability()
{
    stopSampling();
}

void
Observability::startSampling(Tick until)
{
    if (!cfg_.stats)
        return;
    until_ = until;
    if (eq_.now() + kSampleEpoch <= until_)
        eq_.reschedule(&sampleEvent_, eq_.now() + kSampleEpoch);
}

void
Observability::stopSampling()
{
    if (sampleEvent_.scheduled())
        eq_.deschedule(&sampleEvent_);
}

void
Observability::beginWindow(Tick until)
{
    reg_.resetAll();
    if (ring_ != nullptr)
        ring_->clear();
    if (flightRec_ != nullptr)
        flightRec_->clear();
    startSampling(until);
}

void
Observability::registerFlightRecStats(const std::string &prefix)
{
    if (!cfg_.stats)
        return;
    const auto count =
        [this](std::uint64_t (FlightRecorder::*read)() const) {
            return [this, read]() -> std::uint64_t {
                return flightRec_ != nullptr ? (*flightRec_.*read)() : 0;
            };
        };
    const auto triggers = [this](FrTrigger t) {
        return [this, t]() -> std::uint64_t {
            return flightRec_ != nullptr ? flightRec_->triggers(t) : 0;
        };
    };
    reg_.fnCounter(prefix + ".recorded",
                   count(&FlightRecorder::recorded));
    reg_.fnCounter(prefix + ".dumps", count(&FlightRecorder::dumps));
    reg_.fnCounter(prefix + ".dumps_dropped",
                   count(&FlightRecorder::dumpsDropped));
    reg_.fnCounter(prefix + ".triggers_fault", triggers(FrTrigger::Fault));
    reg_.fnCounter(prefix + ".triggers_slo", triggers(FrTrigger::Slo));
    reg_.fnCounter(prefix + ".triggers_shed", triggers(FrTrigger::Shed));
    reg_.fnCounter(prefix + ".triggers_gov", triggers(FrTrigger::Gov));
}

void
Observability::onSample()
{
    reg_.sampleProbes();
    if (eq_.now() + kSampleEpoch <= until_)
        eq_.schedule(&sampleEvent_, eq_.now() + kSampleEpoch);
}

} // namespace halsim::obs
