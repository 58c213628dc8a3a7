#include "fleet/backend.hh"

#include <cassert>
#include <utility>

namespace halsim::fleet {

Backend::Backend(EventQueue &eq, Config cfg, net::PacketSink &out)
    : eq_(eq), cfg_(std::move(cfg)), out_(out)
{
    assert(cfg_.cores > 0);
    assert(cfg_.ring_capacity > 0);
    updatePower();
}

void
Backend::updatePower()
{
    double w = 0.0;
    if (crashed_) {
        w = 0.0;
    } else if (stalled_) {
        // Hung poll-mode cores spin at full draw.
        w = cfg_.cores * kCoreActiveW;
    } else {
        w = busy_ * kCoreActiveW + (cfg_.cores - busy_) * kCoreIdleW;
    }
    power_.set(w, eq_.now());
}

void
Backend::accept(net::PacketPtr pkt)
{
    if (crashed_) {
        ++crashLost_;
        obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                        obs::SpanKind::Drop, obs::SpanPhase::Instant,
                        spanLane_, cfg_.index, 0);
        return;
    }
    const std::uint32_t occ = occupancy();
    if (occ >= cfg_.ring_capacity) {
        ++ringDrops_;
        obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                        obs::SpanKind::Drop, obs::SpanPhase::Instant,
                        spanLane_, cfg_.index, 1);
        return;
    }
    // Admission control: early-drop before the ring fills so queueing
    // delay for admitted requests stays bounded under a retry storm.
    if (cfg_.shed_watermark > 0 && occ >= cfg_.shed_watermark) {
        ++sheds_;
        obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                        obs::SpanKind::Shed, obs::SpanPhase::Instant,
                        spanLane_, cfg_.index, occ);
        if (!shedding_) {
            // Upward watermark crossing: one black-box trigger per
            // overload episode, not one per shed packet.
            shedding_ = true;
            obs::frTrigger(fr_, eq_.now(), obs::FrTrigger::Shed,
                           cfg_.index);
        }
        return;
    }
    obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                    obs::SpanKind::BackendQueue, obs::SpanPhase::Begin,
                    spanLane_, cfg_.index, occ + 1);
    queue_.push_back(std::move(pkt));
    tryDispatch();
}

void
Backend::tryDispatch()
{
    while (!stalled_ && busy_ < cfg_.cores && !queue_.empty()) {
        net::PacketPtr pkt = std::move(queue_.front());
        queue_.pop_front();
        if (shedding_ && occupancy() < cfg_.shed_watermark)
            shedding_ = false; // overload episode over; re-arm
        ++busy_;
        updatePower();
        obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                        obs::SpanKind::BackendQueue, obs::SpanPhase::End,
                        spanLane_, cfg_.index);
        obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                        obs::SpanKind::BackendService,
                        obs::SpanPhase::Begin, spanLane_, cfg_.index);
        const Tick service =
            kServiceOverhead +
            transferTicks(pkt->size(), cfg_.core_rate_gbps);
        const std::uint64_t inc = incarnation_;
        eq_.scheduleFnIn(
            [this, inc, p = std::move(pkt)]() mutable {
                complete(inc, std::move(p));
            },
            service);
    }
}

void
Backend::complete(std::uint64_t incarnation, net::PacketPtr pkt)
{
    // A completion from before a crash lands in a dead world: the
    // request was already counted as crashLost_ when the crash hit.
    if (incarnation != incarnation_)
        return;
    --busy_;
    ++served_;
    servedBytes_ += pkt->size();
    obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                    obs::SpanKind::BackendService, obs::SpanPhase::End,
                    spanLane_, cfg_.index);

    // Turn the request around with real header rewrites: the backend
    // answers as its service identity, back to the recorded client.
    auto eth = pkt->eth();
    eth.setSrc(cfg_.service_mac);
    eth.setDst(pkt->clientMac);
    auto ip = pkt->ip();
    ip.rewriteSrc(cfg_.service_ip);
    ip.rewriteDst(pkt->clientIp);
    auto udp = pkt->udp();
    const std::uint16_t req_dst = udp.dstPort();
    udp.setDstPort(pkt->clientPort);
    udp.setSrcPort(req_dst);
    pkt->isResponse = true;
    pkt->processedBy = net::Processor::SnicCpu;

    updatePower();
    tryDispatch();
    out_.accept(std::move(pkt));
}

void
Backend::crash()
{
    if (crashed_)
        return;
    crashed_ = true;
    stalled_ = false;
    // Everything queued or on a core dies with the node.
    const std::uint32_t lost =
        static_cast<std::uint32_t>(queue_.size() + busy_);
    crashLost_ += lost;
    queue_.clear();
    busy_ = 0;
    ++incarnation_;
    shedding_ = false;
    obs::spanMark(spans_, fr_, eq_.now(), obs::SpanKind::Drop,
                  spanLane_, cfg_.index, lost);
    updatePower();
}

void
Backend::restore()
{
    if (!crashed_)
        return;
    crashed_ = false;
    updatePower();
}

void
Backend::setStalled(bool stalled)
{
    if (crashed_ || stalled_ == stalled)
        return;
    stalled_ = stalled;
    updatePower();
    if (!stalled_)
        tryDispatch();
}

void
Backend::resetStats()
{
    power_.resetAt(eq_.now());
}

} // namespace halsim::fleet
