#include "obs/slo.hh"

#include <algorithm>
#include <map>

#include "obs/span.hh"

namespace halsim::obs {

SloMonitor::SloMonitor(const SloConfig &cfg)
    : cfg_(cfg),
      targetTicks_(static_cast<Tick>(cfg.target_p99_us *
                                     static_cast<double>(kUs)))
{
}

void
SloMonitor::beginWindow(Tick start, Tick end)
{
    windowStart_ = start;
    windowEnd_ = end;
    epochStart_ = start;
    epochHist_.reset();
    epochs_ = 0;
    violations_ = 0;
    worstP99Us_ = 0.0;
    finished_ = false;
}

void
SloMonitor::rollTo(Tick now)
{
    // Close every epoch that ended at or before @p now (empty ones
    // included: a silent epoch is still an epoch, and skipping it
    // would make the count depend on traffic timing).
    while (epochStart_ + cfg_.epoch <= now &&
           epochStart_ + cfg_.epoch <= windowEnd_) {
        closeEpoch();
        epochStart_ += cfg_.epoch;
    }
}

void
SloMonitor::closeEpoch()
{
    const double p99_us =
        epochHist_.p99() / static_cast<double>(kUs);
    ++epochs_;
    if (p99_us > cfg_.target_p99_us) {
        ++violations_;
        if (onViolation_)
            onViolation_(epochStart_ + cfg_.epoch, p99_us);
    }
    worstP99Us_ = std::max(worstP99Us_, p99_us);
    epochHist_.reset();
}

void
SloMonitor::finishWindow()
{
    if (finished_)
        return;
    finished_ = true;
    // Close the in-progress epoch and any silent trailing ones so a
    // window of length W always reports ceil(W / epoch) epochs.
    while (epochStart_ < windowEnd_) {
        closeEpoch();
        epochStart_ += cfg_.epoch;
    }
}

SloAttribution
attributeTail(const SpanTracer &ring, Tick target_ticks)
{
    // Reconstruct per-packet stage spans from whatever the ring
    // retained. std::map keeps the walk deterministic (halint W003
    // bans unordered iteration); this runs at serialization time, so
    // allocation is fine.
    struct Span
    {
        Tick ingress = 0, enq = 0, start = 0, end = 0, egress = 0;
        bool has_ingress = false, has_enq = false, has_start = false,
             has_end = false, has_egress = false;
    };
    std::map<std::uint64_t, Span> spans;

    for (std::size_t i = 0; i < ring.size(); ++i) {
        const SpanEvent &e = ring.at(i);
        if (e.kind != SpanKind::Stage)
            continue;
        Span &s = spans[e.id];
        switch (static_cast<TracePoint>(e.a)) {
          case TracePoint::Ingress:
            if (!s.has_ingress) {
                s.ingress = e.tick;
                s.has_ingress = true;
            }
            break;
          case TracePoint::RingEnqueue:
            if (!s.has_enq) {
                s.enq = e.tick;
                s.has_enq = true;
            }
            break;
          case TracePoint::ServiceStart:
            if (!s.has_start) {
                s.start = e.tick;
                s.has_start = true;
            }
            break;
          case TracePoint::ServiceEnd:
            // Last end wins: a pipelined second stage extends the
            // service span.
            s.end = e.tick;
            s.has_end = true;
            break;
          case TracePoint::Egress:
            if (!s.has_egress) {
                s.egress = e.tick;
                s.has_egress = true;
            }
            break;
          default:
            break;
        }
    }

    SloAttribution out;
    for (const auto &[pkt, s] : spans) {
        (void)pkt;
        if (!(s.has_ingress && s.has_enq && s.has_start && s.has_end &&
              s.has_egress)) {
            continue;   // partial span (ring overwrote part of it)
        }
        if (s.egress <= s.ingress ||
            s.egress - s.ingress <= target_ticks) {
            continue;   // within target (in-server span approximates
                        // the e2e latency up to the fixed link hops)
        }
        const Tick dispatch = s.enq >= s.ingress ? s.enq - s.ingress : 0;
        const Tick queue = s.start >= s.enq ? s.start - s.enq : 0;
        const Tick service = s.end >= s.start ? s.end - s.start : 0;
        const Tick egress = s.egress >= s.end ? s.egress - s.end : 0;
        ++out.attributed;
        const Tick worst =
            std::max(std::max(dispatch, queue), std::max(service, egress));
        if (worst == queue)
            ++out.queue_wait;   // queue wait wins ties: it is the
                                // balancer-actionable stage
        else if (worst == service)
            ++out.service;
        else if (worst == dispatch)
            ++out.dispatch;
        else
            ++out.egress;
    }
    return out;
}

} // namespace halsim::obs
