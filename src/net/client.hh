/**
 * @file
 * Client endpoint: terminates response packets and measures
 * end-to-end latency and delivered throughput, like the paper's
 * ConnectX-6 Dx load-generator machine.
 */

#ifndef HALSIM_NET_CLIENT_HH
#define HALSIM_NET_CLIENT_HH

#include <array>
#include <cstdint>

#include "net/packet.hh"
#include "obs/slo.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace halsim::net {

/**
 * Client-side hardening knobs: per-attempt response timeout, bounded
 * retries, and capped exponential backoff. Shared by any client that
 * retransmits (the fleet client today); kept next to Client so the
 * request/response contract lives in one header.
 *
 * A retried request keeps its original id, so a late original and
 * the retried copy are recognized as duplicates by the receiver and
 * never double-counted.
 */
struct RetryPolicy
{
    /** Per-attempt response timeout; 0 disables retry machinery. */
    Tick timeout = 2 * kMs;
    /** Retransmissions allowed after the first attempt. */
    unsigned max_retries = 3;
    /** Delay before the first retransmission. */
    Tick backoff_base = 500 * kUs;
    /** Exponential backoff saturates here. */
    Tick backoff_cap = 8 * kMs;

    bool enabled() const { return timeout > 0; }

    /** Backoff before retransmission number @p retry (0-based):
     *  base * 2^retry, capped. */
    Tick
    backoffFor(unsigned retry) const
    {
        Tick d = backoff_base;
        for (unsigned i = 0; i < retry && d < backoff_cap; ++i)
            d *= 2;
        return d < backoff_cap ? d : backoff_cap;
    }
};

/**
 * Receives response frames, attributing latency against the request
 * timestamp carried in packet metadata. Statistics can be reset at a
 * warmup boundary so measurements exclude cold-start transients.
 */
class Client : public PacketSink
{
  public:
    explicit Client(EventQueue &eq) : eq_(eq) {}

    void
    accept(PacketPtr pkt) override
    {
        const Tick now = eq_.now();
        const Tick lat = now - pkt->clientTx;
        latency_.sample(static_cast<double>(lat));
        obs::sloRecord(slo_, now, lat);
        delivered_.add(pkt->size());
        byProcessor_[static_cast<std::size_t>(pkt->processedBy)]++;
    }

    /** Attach (or detach with nullptr) the per-run SLO monitor; the
     *  client feeds it every measured end-to-end latency. */
    void setSlo(obs::SloMonitor *m) { slo_ = m; }

    /** Drop all measurements and restart the throughput window. */
    void
    resetStats()
    {
        latency_.reset();
        delivered_.resetAt(eq_.now());
        byProcessor_.fill(0);
    }

    /** End-to-end latency distribution (ticks). */
    const Histogram &latency() const { return latency_; }

    /** p99 end-to-end latency in microseconds. */
    double p99Us() const { return ticksToUs(
        static_cast<Tick>(latency_.p99())); }

    /** Mean end-to-end latency in microseconds. */
    double meanUs() const { return latency_.mean() /
        static_cast<double>(kUs); }

    /** Delivered (response) throughput since the last reset, Gbps. */
    double deliveredGbps() const { return delivered_.gbpsAt(eq_.now()); }

    std::uint64_t responses() const { return latency_.count(); }

    /** Responses broken down by which processor handled them. */
    std::uint64_t
    responsesFrom(Processor p) const
    {
        return byProcessor_[static_cast<std::size_t>(p)];
    }

  private:
    EventQueue &eq_;
    obs::SloMonitor *slo_ = nullptr;
    Histogram latency_;
    RateMeter delivered_;
    std::array<std::uint64_t, 5> byProcessor_{};
};

} // namespace halsim::net

#endif // HALSIM_NET_CLIENT_HH
