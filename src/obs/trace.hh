/**
 * @file
 * Packet-lifecycle points: the stations a sampled packet passes
 * through inside one server (ingress → eSwitch verdict → ring enqueue
 * → service → merge → egress). Each point is written into the one
 * trace ring (obs/span.hh) as a SpanKind::Stage instant keyed by the
 * packet id, with a = the TracePoint and b = the point's argument.
 */

#ifndef HALSIM_OBS_TRACE_HH
#define HALSIM_OBS_TRACE_HH

#include <cstdint>

namespace halsim::obs {

/** Lifecycle stations a sampled packet passes through. */
enum class TracePoint : std::uint8_t
{
    Ingress,       //!< entered the server on the client link
    EswitchVerdict, //!< eSwitch rule matched (arg = rule index)
    RingEnqueue,   //!< accepted into a DPDK ring (arg = occupancy)
    ServiceStart,  //!< poll core began the NF (arg = core index)
    ServiceEnd,    //!< poll core finished the NF (arg = core index)
    Merge,         //!< response rewritten by the traffic merger
    Egress,        //!< left the server on the return link
    Drop,          //!< lost: ring full, blackholed, faulted, …
};

const char *tracePointName(TracePoint p);

class SpanTracer;

/** Former name of the trace ring, kept for perfbench only (perfbench/
 *  still compiles against it); src/ and tests/ use SpanTracer. */
using PacketTracer = SpanTracer;

} // namespace halsim::obs

#endif // HALSIM_OBS_TRACE_HH
