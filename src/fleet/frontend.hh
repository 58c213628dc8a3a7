/**
 * @file
 * L4 fleet frontend: consistent-hash dispatch with a stateful flow
 * table for per-connection consistency, plus failover draining.
 *
 * Routing rule (HNLB/Charon style): the first packet of a flow is
 * placed by the hash ring; every later packet follows the flow-table
 * pin, even across ring changes — so a backend coming back up never
 * yanks established connections away. Only a backend-*down* event
 * moves pinned flows, and then to the ring successor the consistent
 * hash would have chosen anyway.
 *
 * On backend-down the frontend walks that backend's pinned flows:
 * every flow re-pins to its ring successor (flowsMigrated()), and
 * flows with requests still in flight are marked draining — tracked
 * to completion (drainCompleted()) or until the drain timeout expires
 * (drainTimeouts()), at which point their in-flight requests are
 * written off (the client's retry machinery re-serves them).
 *
 * The flow table is an unordered_map keyed by the packet's flowHash,
 * but it is never iterated (halint HAL-W003): failover walks
 * per-backend pinned-key vectors instead, checking each key against
 * its current pin to skip stale entries.
 */

#ifndef HALSIM_FLEET_FRONTEND_HH
#define HALSIM_FLEET_FRONTEND_HH

#include <cstdint>
// halint: allow(HAL-W003) flows_ is find/insert/erase only, never iterated
#include <unordered_map>
#include <vector>

#include "fleet/ring.hh"
#include "net/packet.hh"
#include "obs/hooks.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace halsim::fleet {

class Frontend : public net::PacketSink
{
  public:
    struct Config
    {
        unsigned vnodes = 64;          //!< ring points per backend
    };

    /** Failover drain budget for a pinned flow's in-flight requests. */
    static constexpr Tick kDrainTimeout = 10 * kMs;

    Frontend(EventQueue &eq, Config cfg, unsigned backends);

    /** Wire backend @p i's ingress (its downlink). All backends must
     *  be wired before traffic starts. */
    void setBackendSink(unsigned i, net::PacketSink *sink)
    {
        sinks_[i] = sink;
    }

    /** Dispatch one request by flow pin or ring placement. */
    void accept(net::PacketPtr pkt) override;

    /** Response-path bookkeeping (called by the ResponseTap before
     *  the packet continues to the client). */
    void onResponse(const net::Packet &pkt);

    /** Health verdict changed: migrate pinned flows off @p b and
     *  start draining those with requests still in flight. */
    void onBackendDown(unsigned b);

    /** Backend recovered: new flows may land on it again; existing
     *  pins stay where they are (per-connection consistency). */
    void onBackendUp(unsigned b);

    /** Attach span/flight-recorder sinks (null = off): each sampled
     *  request gets a FrontendLookup instant; failover migrations
     *  emit Failover marks. */
    void
    attachSpans(obs::SpanTracer *spans, obs::FlightRecorder *fr,
                std::uint8_t lane)
    {
        spans_ = spans;
        fr_ = fr;
        spanLane_ = lane;
    }

    const HashRing &ring() const { return ring_; }

    // --- counters -------------------------------------------------------

    std::uint64_t dispatched() const { return dispatched_; }
    /** Requests dropped because every backend was down. */
    std::uint64_t unroutableDrops() const { return unroutableDrops_; }
    std::uint64_t flowsMigrated() const { return flowsMigrated_; }
    std::uint64_t drainStarted() const { return drainStarted_; }
    std::uint64_t drainCompleted() const { return drainCompleted_; }
    std::uint64_t drainTimeouts() const { return drainTimeouts_; }
    std::uint64_t flowCount() const { return flows_.size(); }

    /** Requests dispatched to backend @p b. */
    std::uint64_t dispatchedTo(unsigned b) const
    {
        return perBackend_[b];
    }

  private:
    struct FlowState
    {
        unsigned backend = 0;
        std::uint32_t inFlight = 0;
        bool draining = false;
    };

    void pin(std::uint32_t key, FlowState &fs, unsigned b);

    EventQueue &eq_;
    Config cfg_;
    HashRing ring_;
    std::vector<net::PacketSink *> sinks_;

    /** flowHash -> pin; looked up per packet, never iterated. */
    // halint: allow(HAL-W003) failover walks pinned_ key vectors instead
    std::unordered_map<std::uint32_t, FlowState> flows_;
    /** Keys ever pinned to each backend; entries go stale when a flow
     *  migrates and are skipped (and dropped) on the next walk. */
    std::vector<std::vector<std::uint32_t>> pinned_;

    std::vector<std::uint64_t> perBackend_;
    std::uint64_t dispatched_ = 0;
    std::uint64_t unroutableDrops_ = 0;
    std::uint64_t flowsMigrated_ = 0;
    std::uint64_t drainStarted_ = 0;
    std::uint64_t drainCompleted_ = 0;
    std::uint64_t drainTimeouts_ = 0;

    obs::SpanTracer *spans_ = nullptr;
    obs::FlightRecorder *fr_ = nullptr;
    std::uint8_t spanLane_ = 0;
};

} // namespace halsim::fleet

#endif // HALSIM_FLEET_FRONTEND_HH
