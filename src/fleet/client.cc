#include "fleet/client.hh"

#include <algorithm>
#include <cassert>

#include "fleet/ring.hh"

namespace halsim::fleet {

FleetClient::FleetClient(EventQueue &eq, Config cfg,
                         net::PacketSink &sink)
    : eq_(eq), cfg_(std::move(cfg)), sink_(sink), rng_(cfg_.seed)
{
    assert(cfg_.flows > 0);
    assert(cfg_.frame_bytes >= net::kFrameHeaderLen);
    emitEvent_.setCallback([this] { emitOne(); });
    resampleEvent_.setCallback([this] { resample(); });
    timeoutEvent_.setCallback([this] { expireHead(); });
    // One emit per send: keep it off the heap.
    eq_.pin(&emitEvent_);
}

FleetClient::~FleetClient()
{
    stop();
    if (emitEvent_.pinned())
        eq_.unpin(&emitEvent_);
    if (timeoutEvent_.scheduled())
        eq_.deschedule(&timeoutEvent_);
}

void
FleetClient::start(std::unique_ptr<net::RateProcess> rate, Tick until)
{
    assert(rate != nullptr);
    rate_ = std::move(rate);
    until_ = until;
    resample();
    if (!emitEvent_.scheduled())
        eq_.scheduleIn(&emitEvent_, 0);
}

void
FleetClient::stop()
{
    if (emitEvent_.scheduled())
        eq_.deschedule(&emitEvent_);
    if (resampleEvent_.scheduled())
        eq_.deschedule(&resampleEvent_);
}

void
FleetClient::resample()
{
    rateGbps_ = std::max(rate_->sample(rng_), net::kMinRateGbps);
    if (eq_.now() + cfg_.resample_epoch <= until_)
        eq_.scheduleIn(&resampleEvent_, cfg_.resample_epoch);
}

void
FleetClient::emitOne()
{
    const Tick now = eq_.now();
    if (now >= until_)
        return;

    const std::uint64_t id = nextId_++;
    ++unique_;
    const auto flow =
        static_cast<std::uint32_t>(rng_.uniformInt(cfg_.flows));
    Pending p;
    p.flowHash = static_cast<std::uint32_t>(mix64(flow) >> 32);
    p.firstTx = now;
    // ids are strictly increasing, so the emplace always inserts.
    auto it = pending_.emplace(id, p).first;
    obs::spanRecord(spans_, fr_, now, id, obs::SpanKind::Request,
                    obs::SpanPhase::Begin, spanLane_, flow);
    sendAttempt(id, it->second);

    const Tick gap = transferTicks(cfg_.frame_bytes, rateGbps_);
    const Tick next = now + std::max<Tick>(gap, 1);
    if (next < until_)
        eq_.schedule(&emitEvent_, next);
}

void
FleetClient::sendAttempt(std::uint64_t id, Pending &p)
{
    static constexpr std::uint8_t kEmpty[1] = {0};
    auto pkt = net::makeUdpPacket(
        cfg_.endpoints.src_mac, cfg_.endpoints.dst_mac,
        cfg_.endpoints.src_ip, cfg_.endpoints.dst_ip,
        cfg_.endpoints.src_port, cfg_.endpoints.dst_port,
        std::span<const std::uint8_t>(kEmpty, 0), cfg_.frame_bytes);
    pkt->id = id;
    // Retransmissions keep the original timestamp: latency is
    // first-send to first-response, so retries surface in the tail.
    pkt->clientTx = p.firstTx;
    pkt->flowHash = p.flowHash;
    pkt->clientMac = cfg_.endpoints.src_mac;
    pkt->clientIp = cfg_.endpoints.src_ip;
    pkt->clientPort = cfg_.endpoints.src_port;

    ++sends_;
    sentBytes_ += pkt->size();
    obs::spanRecord(spans_, fr_, eq_.now(), id, obs::SpanKind::Attempt,
                    obs::SpanPhase::Begin, spanLane_, p.attempt);
    sink_.accept(std::move(pkt));

    if (cfg_.retry.enabled()) {
        // Reserve the order key here, where a per-attempt one-shot
        // would have been scheduled, so the timeout keeps its slot.
        const Tick when = eq_.now() + cfg_.retry.timeout;
        const std::uint64_t key = eq_.reserveKey();
        deadlines_.push({when, key, Deadline{id, p.attempt}});
        if (deadlines_.size() == 1)
            eq_.scheduleKeyed(&timeoutEvent_, when, key);
    }
}

bool
FleetClient::live(const Deadline &d) const
{
    auto it = pending_.find(d.id);
    return it != pending_.end() && it->second.attempt == d.attempt;
}

void
FleetClient::expireHead()
{
    // Re-arm for the successor before running the timeout, as
    // TimedChannel::execute does. Heads whose request already
    // resolved would fire as no-ops, so they are dropped; the last
    // entry is kept so the drain still ends on its tick.
    const Deadline d = deadlines_.pop().payload;
    while (deadlines_.size() > 1 && !live(deadlines_.front().payload))
        deadlines_.pop();
    if (!deadlines_.empty())
        eq_.scheduleKeyed(&timeoutEvent_, deadlines_.front().when,
                          deadlines_.front().key);
    onTimeout(d.id, d.attempt);
}

void
FleetClient::onTimeout(std::uint64_t id, unsigned attempt)
{
    auto it = pending_.find(id);
    if (it == pending_.end() || it->second.attempt != attempt)
        return; // resolved, or superseded by a newer attempt
    ++timeouts_;
    Pending &p = it->second;
    if (p.retriesUsed >= cfg_.retry.max_retries) {
        const std::uint32_t attempts = p.retriesUsed + 1;
        obs::spanRecord(spans_, fr_, eq_.now(), id,
                        obs::SpanKind::Attempt, obs::SpanPhase::End,
                        spanLane_, p.attempt, 1);
        obs::spanRecord(spans_, fr_, eq_.now(), id, obs::SpanKind::Drop,
                        obs::SpanPhase::Instant, spanLane_, attempts);
        obs::spanRecord(spans_, fr_, eq_.now(), id,
                        obs::SpanKind::Request, obs::SpanPhase::End,
                        spanLane_, attempts);
        ++failed_;
        attempts_.sample(static_cast<double>(attempts));
        if (attemptsSink_ != nullptr)
            attemptsSink_->sample(static_cast<double>(attempts));
        pending_.erase(it);
        return;
    }
    const Tick backoff = cfg_.retry.backoffFor(p.retriesUsed);
    // Attempt End args: (attempt index, backoff before the retry, us).
    obs::spanRecord(spans_, fr_, eq_.now(), id, obs::SpanKind::Attempt,
                    obs::SpanPhase::End, spanLane_, p.attempt,
                    static_cast<std::uint32_t>(backoff / kUs));
    eq_.scheduleFnIn([this, id] { retransmit(id); }, backoff);
}

void
FleetClient::retransmit(std::uint64_t id)
{
    auto it = pending_.find(id);
    if (it == pending_.end())
        return; // a straggler response resolved it during backoff
    Pending &p = it->second;
    ++p.retriesUsed;
    ++p.attempt;
    ++retries_;
    sendAttempt(id, p);
}

void
FleetClient::accept(net::PacketPtr pkt)
{
    auto it = pending_.find(pkt->id);
    if (it == pending_.end()) {
        // Late original racing a served retry (or a response past a
        // failed request): suppressed, never double-counted.
        ++duplicates_;
        obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                        obs::SpanKind::Duplicate,
                        obs::SpanPhase::Instant, spanLane_);
        return;
    }
    const Tick now = eq_.now();
    const Tick lat = now - it->second.firstTx;
    latency_.sample(static_cast<double>(lat));
    obs::sloRecord(slo_, now, lat);
    delivered_.add(pkt->size());
    ++completions_;
    const std::uint32_t attempts = it->second.retriesUsed + 1;
    obs::spanRecord(spans_, fr_, now, pkt->id, obs::SpanKind::Attempt,
                    obs::SpanPhase::End, spanLane_,
                    it->second.attempt);
    obs::spanRecord(spans_, fr_, now, pkt->id, obs::SpanKind::Request,
                    obs::SpanPhase::End, spanLane_, attempts,
                    static_cast<std::uint32_t>(lat / kUs));
    attempts_.sample(static_cast<double>(attempts));
    if (attemptsSink_ != nullptr)
        attemptsSink_->sample(static_cast<double>(attempts));
    pending_.erase(it);
}

void
FleetClient::resetMeasurement()
{
    latency_.reset();
    delivered_.resetAt(eq_.now());
}

} // namespace halsim::fleet
