#include "core/hlb.hh"

#include <algorithm>
#include <cmath>

namespace halsim::core {

const char *
splitModeName(SplitMode m)
{
    switch (m) {
      case SplitMode::TokenBucket: return "token-bucket";
      case SplitMode::RoundRobin: return "round-robin";
      case SplitMode::FlowAffinity: return "flow-affinity";
    }
    return "?";
}

TrafficMonitor::TrafficMonitor(EventQueue &eq) : eq_(eq)
{
    tickEvent_.setCallback([this] { tick(); });
}

TrafficMonitor::~TrafficMonitor()
{
    stop();
}

void
TrafficMonitor::start()
{
    if (!tickEvent_.scheduled())
        eq_.scheduleIn(&tickEvent_, kEpoch);
}

void
TrafficMonitor::stop()
{
    if (tickEvent_.scheduled())
        eq_.deschedule(&tickEvent_);
}

void
TrafficMonitor::tick()
{
    rateRx_ = gbps(receivedBytes_, kEpoch);
    receivedBytes_ = 0;
    eq_.scheduleIn(&tickEvent_, kEpoch);
}

TrafficDirector::TrafficDirector(EventQueue &eq, Config cfg,
                                 TrafficMonitor &monitor,
                                 net::PacketSink &out)
    : eq_(eq), cfg_(cfg), monitor_(monitor), out_(out),
      fwdTh_(std::clamp(cfg.initial_fwd_th_gbps, 0.0, kMaxFwdThGbps)),
      lastLbpTh_(fwdTh_)
{
    // Start with a full bucket so traffic below Fwd_Th never diverts,
    // including the very first packet.
    tokens_ = kBucketDepthUs * fwdTh_ / 8.0 * 1000.0;
}

void
TrafficDirector::setFwdTh(double gbps_th)
{
    if (!std::isfinite(gbps_th))
        return;
    const double th = std::clamp(gbps_th, 0.0, kMaxFwdThGbps);
    lastLbpTh_ = th;
    lastUpdate_ = eq_.now();
    if (!failover_)
        fwdTh_ = th;
}

void
TrafficDirector::heartbeat()
{
    lastUpdate_ = eq_.now();
}

void
TrafficDirector::enterFailover(double gbps)
{
    failover_ = true;
    fwdTh_ = std::clamp(gbps, 0.0, kMaxFwdThGbps);
}

void
TrafficDirector::exitFailover()
{
    if (!failover_)
        return;
    failover_ = false;
    fwdTh_ = lastLbpTh_;
}

void
TrafficDirector::refill()
{
    const Tick now = eq_.now();
    if (now <= lastRefill_)
        return;
    // Fwd_Th Gbps -> bytes per tick.
    const double bytes_per_tick = fwdTh_ / 8.0 / 1000.0;
    const double cap = kBucketDepthUs * fwdTh_ / 8.0 * 1000.0;
    tokens_ = std::min(cap, tokens_ + bytes_per_tick *
                                static_cast<double>(now - lastRefill_));
    lastRefill_ = now;
}

bool
TrafficDirector::shouldDivert(const net::Packet &pkt)
{
    if (cfg_.mode == SplitMode::TokenBucket) {
        refill();
        const double bytes = static_cast<double>(pkt.size());
        if (tokens_ >= bytes) {
            tokens_ -= bytes;
            return false;
        }
        return true;
    }

    // The remaining disciplines divert the excess *fraction* using
    // the monitor's epoch rate estimate.
    const double rate = monitor_.rateRxGbps();
    if (rate <= fwdTh_) {
        rrAccum_ = 0.0;
        return false;
    }
    const double excess = (rate - fwdTh_) / rate;

    if (cfg_.mode == SplitMode::FlowAffinity) {
        // Map the flow hash to [0, 1) (decorrelated from the RSS use
        // of the same hash) and divert the flows landing below the
        // excess fraction — a whole flow always goes one way.
        const std::uint32_t mixed = pkt.flowHash * 2654435761u;
        const double u =
            static_cast<double>(mixed) / 4294967296.0;
        return u < excess;
    }

    // Round-robin: evenly spread per-packet diversion.
    rrAccum_ += excess;
    if (rrAccum_ >= 1.0) {
        rrAccum_ -= 1.0;
        return true;
    }
    return false;
}

void
TrafficDirector::accept(net::PacketPtr pkt)
{
    monitor_.onFrame(pkt->size());
    if (shouldDivert(*pkt)) {
        // Rewrite destination identity; the eSwitch does the rest.
        pkt->ip().rewriteDst(cfg_.host_ip);
        pkt->eth().setDst(cfg_.host_mac);
        pkt->directedToHost = true;
        ++toHost_;
    } else {
        ++toSnic_;
    }
    out_.accept(std::move(pkt));
}

} // namespace halsim::core
