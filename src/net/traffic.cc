#include "net/traffic.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace halsim::net {

namespace {

/**
 * Mean of min(exp(N(mu, sigma)), cap) by direct integration on a
 * fine grid of the standard normal. Used only for reporting, so the
 * simple midpoint rule over +-10 sigma is plenty.
 */
double
truncatedLognormalMean(double mu, double sigma, double cap)
{
    const int n = 20000;
    const double lo = -10.0, hi = 10.0;
    const double dz = (hi - lo) / n;
    double mean = 0.0;
    for (int i = 0; i < n; ++i) {
        const double z = lo + (i + 0.5) * dz;
        const double pdf =
            std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
        const double v = std::min(std::exp(mu + sigma * z), cap);
        mean += v * pdf * dz;
    }
    return mean;
}

} // namespace

LognormalRate::LognormalRate(double mu, double sigma, double cap_gbps,
                             std::string label)
    : mu_(mu), sigma_(sigma), cap_(cap_gbps),
      mean_(truncatedLognormalMean(mu, sigma, cap_gbps)),
      label_(std::move(label))
{}

double
LognormalRate::sample(Rng &rng)
{
    return std::min(rng.lognormal(mu_, sigma_), cap_);
}

DiurnalRate::DiurnalRate(double trough_gbps, double peak_gbps,
                         std::uint32_t period_samples)
    : trough_(trough_gbps), peak_(peak_gbps),
      period_(period_samples > 0 ? period_samples : 1),
      mean_(0.5 * (trough_gbps + peak_gbps))
{}

double
DiurnalRate::sample(Rng &)
{
    // Raised cosine starting at the trough: phase 0 is "night",
    // phase period/2 is "midday". The mean of the raised cosine over
    // a full period is exactly (trough + peak) / 2.
    const double theta =
        2.0 * M_PI * static_cast<double>(phase_) / period_;
    phase_ = phase_ + 1 == period_ ? 0 : phase_ + 1;
    const double depth = 0.5 * (1.0 - std::cos(theta));
    return trough_ + (peak_ - trough_) * depth;
}

BurstRate::BurstRate(double base_gbps, double burst_gbps,
                     std::uint32_t period_samples,
                     std::uint32_t burst_samples)
    : base_(base_gbps), burst_(burst_gbps),
      period_(period_samples > 0 ? period_samples : 1),
      burstLen_(std::min(burst_samples, period_)),
      mean_(base_gbps +
            (burst_gbps - base_gbps) * static_cast<double>(burstLen_) /
                period_)
{}

double
BurstRate::sample(Rng &)
{
    const bool bursting = phase_ < burstLen_;
    phase_ = phase_ + 1 == period_ ? 0 : phase_ + 1;
    return bursting ? burst_ : base_;
}

const char *
traceName(TraceKind k)
{
    switch (k) {
      case TraceKind::Web: return "web";
      case TraceKind::Cache: return "cache";
      case TraceKind::Hadoop: return "hadoop";
    }
    return "?";
}

std::unique_ptr<RateProcess>
makeTrace(TraceKind kind, double line_rate_gbps)
{
    // (mu, sigma) from Fig. 8 of the paper.
    switch (kind) {
      case TraceKind::Web:
        return std::make_unique<LognormalRate>(-1.37, 1.97, line_rate_gbps,
                                               "web");
      case TraceKind::Cache:
        return std::make_unique<LognormalRate>(-9.0, 7.55, line_rate_gbps,
                                               "cache");
      case TraceKind::Hadoop:
        return std::make_unique<LognormalRate>(-4.18, 6.56, line_rate_gbps,
                                               "hadoop");
    }
    return nullptr;
}

TrafficGenerator::TrafficGenerator(EventQueue &eq, Config cfg,
                                   std::unique_ptr<RateProcess> rate,
                                   PacketSink &sink)
    : eq_(eq), cfg_(std::move(cfg)), rate_(std::move(rate)), sink_(sink),
      rng_(cfg_.seed)
{
    assert(rate_ != nullptr);
    assert(cfg_.frame_bytes >= kFrameHeaderLen);
    emitEvent_.setCallback([this] { emitOne(); });
    resampleEvent_.setCallback([this] { resample(); });
    // One emit per frame: keep it off the heap.
    eq_.pin(&emitEvent_);
}

TrafficGenerator::~TrafficGenerator()
{
    stop();
    if (emitEvent_.pinned())
        eq_.unpin(&emitEvent_);
}

void
TrafficGenerator::start(Tick until)
{
    until_ = until;
    resample();
    if (!emitEvent_.scheduled())
        eq_.scheduleIn(&emitEvent_, 0);
}

void
TrafficGenerator::stop()
{
    if (emitEvent_.scheduled())
        eq_.deschedule(&emitEvent_);
    if (resampleEvent_.scheduled())
        eq_.deschedule(&resampleEvent_);
}

void
TrafficGenerator::resample()
{
    rateGbps_ = std::max(rate_->sample(rng_), kMinRateGbps);
    offered_.sample(rateGbps_);
    if (eq_.now() + cfg_.resample_epoch <= until_)
        eq_.scheduleIn(&resampleEvent_, cfg_.resample_epoch);
}

void
TrafficGenerator::emitOne()
{
    const Tick now = eq_.now();
    if (now >= until_)
        return;

    static constexpr std::uint8_t kEmpty[1] = {0};
    auto pkt = makeUdpPacket(cfg_.endpoints.src_mac, cfg_.endpoints.dst_mac,
                             cfg_.endpoints.src_ip, cfg_.endpoints.dst_ip,
                             cfg_.endpoints.src_port, cfg_.endpoints.dst_port,
                             std::span<const std::uint8_t>(kEmpty, 0),
                             cfg_.frame_bytes);
    pkt->id = nextId_++;
    pkt->clientTx = now;
    pkt->flowHash = static_cast<std::uint32_t>(rng_.next());
    pkt->clientMac = cfg_.endpoints.src_mac;
    pkt->clientIp = cfg_.endpoints.src_ip;
    pkt->clientPort = cfg_.endpoints.src_port;
    if (payloadFn_)
        payloadFn_(*pkt);

    sentBytes_ += pkt->size();
    ++sentFrames_;
    sink_.accept(std::move(pkt));

    const Tick gap = transferTicks(cfg_.frame_bytes, rateGbps_);
    const Tick next = now + std::max<Tick>(gap, 1);
    if (next < until_)
        eq_.schedule(&emitEvent_, next);
}

} // namespace halsim::net
