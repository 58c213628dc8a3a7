#include "net/link.hh"

#include <algorithm>
#include <utility>

#include "sim/rng.hh"

namespace halsim::net {

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
    const std::size_t queued = chan_.pending();
    if (queued >= cfg_.max_queue) {
        ++drops_;
        obs::tracePacket(trace_, now, pkt->id, obs::TracePoint::Drop,
                         traceLane_, static_cast<std::uint32_t>(queued));
        return;
    }

    const Tick start = std::max(busyUntil_, now);
    const Tick ser = transferTicks(pkt->size(), cfg_.rate_gbps);
    busyUntil_ = start + ser;
    const Tick deliver = busyUntil_ + cfg_.propagation;

    deliveredBytes_ += pkt->size();
    ++deliveredFrames_;
    obs::tracePacket(trace_, now, pkt->id, tracePoint_, traceLane_);

    chan_.push(deliver, std::move(pkt));
}

} // namespace halsim::net
