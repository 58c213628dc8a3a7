/**
 * @file
 * Isolated host-time drives of single simulator layers, each fed the
 * measured workload's own mix (queue depth, frame size and rate, host
 * share, function, fleet shape). Each drive repeats rounds until its
 * budget is spent and returns the median host nanoseconds per
 * operation over the rounds.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "funcs/function.hh"
#include "net/traffic.hh"

namespace perfbench {

struct LayerMix
{
    double pending_mean = 1.0;     //!< live events, mean over epochs
    double tombstone_frac = 0.0;   //!< dead heap slots, mean over epochs
    std::function<std::unique_ptr<halsim::net::RateProcess>()> makeRate;
    std::size_t frame_bytes = 1500;
    double host_share = 0.0;       //!< frames the host processor served
    halsim::funcs::FunctionId function = halsim::funcs::FunctionId::Nat;
    bool coherent = false;         //!< function state in a coherence domain
    unsigned backends = 4;         //!< fleet frontend shape
    unsigned vnodes = 64;
    std::uint32_t flows = 512;
    std::uint64_t seed = 1;
};

/** EventQueue schedule/scheduleFn/deschedule/runUntil at the mix's
 *  depth and tombstone share; ns per executed event. */
double simNsPerEvent(const LayerMix &mix, double budget_s);

/** TrafficGenerator -> Link -> null sink at the mix's frame size and
 *  rate; ns per generated frame. */
double netNsPerPkt(const LayerMix &mix, double budget_s);

/** ESwitch -> FixedDelay -> DpdkRing for the SNIC and host ports at
 *  the mix's host share; ns per frame. */
double nicNsPerPkt(const LayerMix &mix, double budget_s);

/** NetworkFunction makeRequest + process through a StateContext;
 *  ns per frame. */
double funcsNsPerPkt(const LayerMix &mix, double budget_s);

/** CoherenceDomain::access over the function-state lines from both
 *  nodes at the mix's host share; ns per access. */
double coherenceNsPerAccess(const LayerMix &mix, double budget_s);

/** Histogram::sample, PacketTracer::record and SpanTracer::record,
 *  interleaved; ns per record. */
double obsNsPerRecord(const LayerMix &mix, double budget_s);

/** fleet::Frontend dispatch (HashRing lookup, flow pin) and response
 *  accounting over the mix's flows; ns per request. */
double fleetNsPerReq(const LayerMix &mix, double budget_s);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
