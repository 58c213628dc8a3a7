/**
 * @file
 * Zero-cost-when-disabled instrumentation hooks.
 *
 * Instrumented components hold a raw `SpanTracer *` (and, for span
 * sites, a `FlightRecorder *`) that is null unless that feature was
 * requested; each hook then costs one perfectly-predicted branch per
 * sink. Packet stages and request spans write into the same ring, so
 * its records stay in tick order. When enabled, the sampling test is one
 * modulo and the record is one indexed POD store — no allocation.
 */

#ifndef HALSIM_OBS_HOOKS_HH
#define HALSIM_OBS_HOOKS_HH

#include "obs/span.hh"

namespace halsim::obs {

/** Record a lifecycle point for @p pkt_id as a Stage instant if
 *  tracing is enabled and the packet is in the sampled subset. */
inline void
tracePacket(SpanTracer *t, Tick now, std::uint64_t pkt_id,
            TracePoint p, std::uint8_t lane, std::uint32_t arg = 0)
{
    if (t != nullptr && t->wants(pkt_id))
        t->record(now, pkt_id, p, lane, arg);
}

/** Record a request-scoped span event: into the trace ring if span
 *  tracing is enabled and the trace id is in the sampled subset, and
 *  into the always-on flight-recorder ring if that is armed. Both
 *  pointers are null when the corresponding feature is off, so the
 *  disabled cost is two predicted branches. */
inline void
spanRecord(SpanTracer *t, FlightRecorder *fr, Tick now,
           std::uint64_t trace_id, SpanKind k, SpanPhase ph,
           std::uint8_t lane, std::uint32_t a = 0, std::uint32_t b = 0)
{
    if (t != nullptr && t->wants(trace_id))
        t->record(now, trace_id, k, ph, lane, a, b);
    if (fr != nullptr)
        fr->record(now, trace_id, k, ph, lane, a, b);
}

/** Record a fleet-scope mark (health transition, failover, governor
 *  epoch, …): not tied to one request, so it bypasses the sampling
 *  test and uses trace id 0. */
inline void
spanMark(SpanTracer *t, FlightRecorder *fr, Tick now, SpanKind k,
         std::uint8_t lane, std::uint32_t a = 0, std::uint32_t b = 0)
{
    if (t != nullptr)
        t->record(now, 0, k, SpanPhase::Instant, lane, a, b);
    if (fr != nullptr)
        fr->record(now, 0, k, SpanPhase::Instant, lane, a, b);
}

/** Fire a flight-recorder trigger source (counts even when the
 *  source is not armed). */
inline void
frTrigger(FlightRecorder *fr, Tick now, FrTrigger t,
          std::uint32_t arg = 0)
{
    if (fr != nullptr)
        fr->trigger(now, t, arg);
}

} // namespace halsim::obs

#endif // HALSIM_OBS_HOOKS_HH
