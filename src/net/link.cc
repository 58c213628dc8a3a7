#include "net/link.hh"

#include <algorithm>
#include <utility>

#include "sim/rng.hh"

namespace halsim::net {

std::size_t
Link::queued() const
{
    // A frame leaves the wire `hop_after` before delivery; with a hop
    // in front, that is `hop_before` later still, which in the
    // link's shifted clock is the same subtraction. Wire ends are
    // nondecreasing, so the frames off the wire form a prefix.
    const std::size_t n = chan_.pending();
    const Tick hops = cfg_.hop_before + cfg_.hop_after;
    if (hops == 0)
        return n;   // a slot leaves the channel when its wire ends
    std::size_t off = 0;
    for (; off < n; ++off) {
        const Tick wireEnd = chan_.whenAt(off) - hops;
        // Same-tick tie: a wire-end event behind a front hop would
        // have been keyed when the frame left that hop, which
        // precedes this tick (hop_before < propagation); otherwise it
        // keeps the key the slot reserved at send.
        const bool passed = cfg_.hop_before > 0
                                ? wireEnd <= eq_.now()
                                : eq_.passed(wireEnd, chan_.keyAt(off));
        if (!passed)
            break;
    }
    return n - off;
}

void
Link::send(PacketPtr pkt)
{
    const Tick now = eq_.now();
    if (faultRng_ != nullptr) {
        // Injected impairment: the frame enters the wire but never
        // reaches the far end (burst loss) or arrives mangled and is
        // discarded by the receiver's CRC check. Either way the
        // sender's Tx FIFO accounting is untouched.
        if (lossProb_ > 0.0 && faultRng_->chance(lossProb_)) {
            ++faultLost_;
            obs::tracePacket(trace_, now, pkt->id,
                             obs::TracePoint::Drop, traceLane_);
            return;
        }
        if (corruptProb_ > 0.0 && faultRng_->chance(corruptProb_)) {
            ++corrupted_;
            obs::tracePacket(trace_, now, pkt->id,
                             obs::TracePoint::Drop, traceLane_);
            return;
        }
    }
    const std::size_t backlog = queued();
    if (backlog >= cfg_.max_queue) {
        ++drops_;
        obs::tracePacket(trace_, now, pkt->id, obs::TracePoint::Drop,
                         traceLane_, static_cast<std::uint32_t>(backlog));
        return;
    }

    const Tick start = std::max(busyUntil_, now);
    const Tick ser = transferTicks(pkt->size(), cfg_.rate_gbps);
    busyUntil_ = start + ser;
    const Tick deliver = busyUntil_ + cfg_.hop_before + cfg_.propagation +
                         cfg_.hop_after;

    deliveredBytes_ += pkt->size();
    ++deliveredFrames_;
    obs::tracePacket(trace_, now, pkt->id, tracePoint_, traceLane_);

    chan_.push(deliver, std::move(pkt));
}

} // namespace halsim::net
