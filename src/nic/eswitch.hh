/**
 * @file
 * The SNIC embedded switch (eSwitch, §II-A): forwards frames to the
 * SNIC processor or the host processor according to OvS-style rules
 * keyed on the destination IP, exactly the mechanism HAL's traffic
 * director relies on (it rewrites the destination and lets the
 * eSwitch route). Also small helper sinks for fixed path delays and
 * RSS spreading.
 */

#ifndef HALSIM_NIC_ESWITCH_HH
#define HALSIM_NIC_ESWITCH_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hh"
#include "net/timed_channel.hh"
#include "obs/hooks.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace halsim::nic {

/**
 * Destination-IP forwarding switch. Rules are exact-match on the
 * IPv4 destination; unmatched frames go to the default port (or are
 * dropped when none is set).
 */
class ESwitch : public net::PacketSink
{
  public:
    /** Add/replace the rule dst_ip -> port. */
    void
    addRule(net::Ipv4Addr dst_ip, net::PacketSink *port)
    {
        for (auto &r : rules_) {
            if (r.ip == dst_ip) {
                r.port = port;
                r.enabled = true;
                return;
            }
        }
        rules_.push_back(Rule{dst_ip, port, true});
    }

    void setDefault(net::PacketSink *port) { default_ = port; }

    /**
     * Fault hook: a downed port keeps its rule but blackholes the
     * frames that match it (the PF/VF behind the eSwitch went away).
     */
    void
    setPortEnabled(net::Ipv4Addr dst_ip, bool enabled)
    {
        for (auto &r : rules_) {
            if (r.ip == dst_ip)
                r.enabled = enabled;
        }
    }

    /** Attach the trace ring (@p eq supplies timestamps): matches
     *  record EswitchVerdict with the rule index as arg; blackholed
     *  and unrouted frames record Drop. */
    void
    setTrace(obs::SpanTracer *t, std::uint8_t lane,
             const EventQueue *eq)
    {
        trace_ = t;
        traceLane_ = lane;
        traceEq_ = eq;
    }

    // halint: hotpath
    void
    accept(net::PacketPtr pkt) override
    {
        const net::Ipv4Addr dst = pkt->ip().dst();
        for (std::size_t i = 0; i < rules_.size(); ++i) {
            const Rule &r = rules_[i];
            if (r.ip == dst) {
                if (!r.enabled) {
                    ++blackholed_;
                    obs::tracePacket(
                        trace_,
                        traceEq_ != nullptr ? traceEq_->now() : 0,
                        pkt->id, obs::TracePoint::Drop, traceLane_,
                        static_cast<std::uint32_t>(i));
                    return;
                }
                ++matched_;
                obs::tracePacket(
                    trace_, traceEq_ != nullptr ? traceEq_->now() : 0,
                    pkt->id, obs::TracePoint::EswitchVerdict,
                    traceLane_, static_cast<std::uint32_t>(i));
                r.port->accept(std::move(pkt));
                return;
            }
        }
        if (default_ != nullptr) {
            default_->accept(std::move(pkt));
            return;
        }
        ++unrouted_;
        obs::tracePacket(trace_,
                         traceEq_ != nullptr ? traceEq_->now() : 0,
                         pkt->id, obs::TracePoint::Drop, traceLane_);
    }

    std::uint64_t matched() const { return matched_; }
    std::uint64_t unrouted() const { return unrouted_; }

    /** Frames dropped at a downed port. */
    std::uint64_t blackholed() const { return blackholed_; }

  private:
    struct Rule
    {
        net::Ipv4Addr ip;
        net::PacketSink *port;
        bool enabled;
    };

    /** Tiny rule count (2-3); linear scan beats a map. */
    std::vector<Rule> rules_;
    net::PacketSink *default_ = nullptr;
    std::uint64_t matched_ = 0;
    std::uint64_t unrouted_ = 0;
    std::uint64_t blackholed_ = 0;

    // Observability (null/inert unless attached).
    obs::SpanTracer *trace_ = nullptr;
    std::uint8_t traceLane_ = 0;
    const EventQueue *traceEq_ = nullptr;
};

/**
 * Fixed-latency forwarding element for the intra-server hops the
 * paper quantifies (§III-A): eSwitch -> SNIC rings, the extra PCIe
 * hop to the host, and the extra UPI/CXL hop to a remote socket.
 */
class FixedDelay : public net::PacketSink,
                   private net::TimedChannel::Receiver
{
  public:
    FixedDelay(EventQueue &eq, Tick delay, net::PacketSink &next)
        : eq_(eq), delay_(delay), next_(next),
          chan_(eq, *this, "fixed-delay")
    {}

    // halint: hotpath
    void
    accept(net::PacketPtr pkt) override
    {
        chan_.push(eq_.now() + delay_, std::move(pkt));
    }

  private:
    void
    channelDeliver(net::PacketPtr pkt) override
    {
        next_.accept(std::move(pkt));
    }

    EventQueue &eq_;
    Tick delay_;
    net::PacketSink &next_;
    net::TimedChannel chan_;
};

/**
 * Receive-side scaling: spreads frames over N rings by flow hash,
 * one ring per polling core, as DPDK configures the (S)NIC.
 */
class RssDistributor : public net::PacketSink
{
  public:
    void addQueue(net::PacketSink *q) { queues_.push_back(q); }

    // halint: hotpath
    void
    accept(net::PacketPtr pkt) override
    {
        if (queues_.empty())
            return;
        const std::size_t i = pkt->flowHash % queues_.size();
        queues_[i]->accept(std::move(pkt));
    }

    std::size_t queueCount() const { return queues_.size(); }

  private:
    std::vector<net::PacketSink *> queues_;
};

} // namespace halsim::nic

#endif // HALSIM_NIC_ESWITCH_HH
