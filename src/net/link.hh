/**
 * @file
 * Point-to-point link model: serialization at line rate, fixed
 * propagation delay, FIFO contention, bounded transmit queue.
 *
 * Used for the client<->server Ethernet cables (which also carry the
 * HLB FPGA's fixed hop in each direction under HAL) and the fleet's
 * client, uplink and downlink cables.
 */

#ifndef HALSIM_NET_LINK_HH
#define HALSIM_NET_LINK_HH

#include <cassert>
#include <cstdint>
#include <string>

#include "net/packet.hh"
#include "net/timed_channel.hh"
#include "obs/hooks.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace halsim {
class Rng;
}

namespace halsim::net {

/**
 * Unidirectional link. Packets serialize back-to-back at the line
 * rate; each is delivered to the sink after serialization plus
 * propagation. The Tx FIFO is bounded: a frame offered while
 * max_queue frames are queued or on the wire (serialized but not yet
 * propagated) is tail-dropped.
 *
 * A fixed-latency element next to the link folds into it instead of
 * costing its own event per frame. A hop behind the wire is more
 * propagation. A hop in front of the link commutes with its FIFO:
 * serializing at arrival and delivering the hop later lands every
 * frame on the tick it would have reached after the hop, since each
 * departure shifts by the same constant. Frames inside either hop
 * are not on the link, so they do not count against max_queue; a
 * frame whose wire end falls on the current tick still counts until
 * its position in the (tick, key) order has passed, as it would with
 * a separate hop element.
 */
class Link : public PacketSink
{
  public:
    struct Config
    {
        double rate_gbps = 100.0;       //!< serialization rate
        Tick propagation = 500 * kNs;   //!< cable/interconnect latency
        std::uint32_t max_queue = 4096; //!< max packets queued for Tx
        std::string name = "link";
        /** Fixed hop folded in front of the link; must be shorter
         *  than propagation, which keeps same-tick ties exact. */
        Tick hop_before = 0;
        Tick hop_after = 0;   //!< fixed hop folded behind the wire
    };

    Link(EventQueue &eq, Config cfg, PacketSink &sink)
        : eq_(eq), cfg_(std::move(cfg)), chan_(eq, sink)
    {
        assert((cfg_.hop_before == 0 ||
                cfg_.hop_before < cfg_.propagation) &&
               "a hop in front of the link must be shorter than its "
               "propagation");
    }

    /** Offer a packet to the link; may tail-drop. */
    void send(PacketPtr pkt);

    /** PacketSink interface: same as send(). */
    void accept(PacketPtr pkt) override { send(std::move(pkt)); }

    /** Packets dropped at the Tx FIFO. */
    std::uint64_t drops() const { return drops_; }

    /**
     * Fault injection: until cleared, each offered frame is lost with
     * probability @p loss_prob or corrupted with probability
     * @p corrupt_prob (corrupted frames fail CRC at the receiver and
     * never reach the sink). @p rng must outlive the impairment.
     */
    void
    setImpairment(double loss_prob, double corrupt_prob, Rng *rng)
    {
        lossProb_ = loss_prob;
        corruptProb_ = corrupt_prob;
        faultRng_ = rng;
    }

    /** Restore the link to nominal behaviour. */
    void
    clearImpairment()
    {
        lossProb_ = 0.0;
        corruptProb_ = 0.0;
        faultRng_ = nullptr;
    }

    /** Frames lost to an injected loss burst. */
    std::uint64_t faultLost() const { return faultLost_; }

    /** Frames corrupted in flight (dropped by the receiver's CRC). */
    std::uint64_t corrupted() const { return corrupted_; }

    /** All impairment-induced losses (lost + corrupted). */
    std::uint64_t faultDrops() const { return faultLost_ + corrupted_; }

    /** Bytes successfully delivered to the far end. */
    std::uint64_t deliveredBytes() const { return deliveredBytes_; }

    /** Frames successfully delivered to the far end. */
    std::uint64_t deliveredFrames() const { return deliveredFrames_; }

    const Config &config() const { return cfg_; }

    /**
     * Attach the trace ring. @p point is what a successful
     * traversal records (Ingress for the client link, Egress for the
     * return link); losses record TracePoint::Drop on the same lane.
     */
    void
    setTrace(obs::SpanTracer *t, std::uint8_t lane,
             obs::TracePoint point)
    {
        trace_ = t;
        traceLane_ = lane;
        tracePoint_ = point;
    }

  private:
    /** Frames queued or on the wire: chan_ minus the frames that have
     *  entered a folded hop. */
    std::size_t queued() const;

    EventQueue &eq_;
    Config cfg_;
    TimedChannel chan_; //!< frames in the Tx FIFO, on the wire or in a hop
    Tick busyUntil_ = 0; //!< shifted earlier by hop_before
    std::uint64_t drops_ = 0;
    std::uint64_t deliveredBytes_ = 0;
    std::uint64_t deliveredFrames_ = 0;

    // Fault-injection state.
    double lossProb_ = 0.0;
    double corruptProb_ = 0.0;
    Rng *faultRng_ = nullptr;
    std::uint64_t faultLost_ = 0;
    std::uint64_t corrupted_ = 0;

    // Observability (null/inert unless attached).
    obs::SpanTracer *trace_ = nullptr;
    std::uint8_t traceLane_ = 0;
    obs::TracePoint tracePoint_ = obs::TracePoint::Ingress;
};

} // namespace halsim::net

#endif // HALSIM_NET_LINK_HH
