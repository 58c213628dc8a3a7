/**
 * @file
 * The hardware-based load balancer (HLB) of §V-A: traffic monitor,
 * traffic director, and traffic merger, composed into the HLB device
 * the paper prototypes on an Alveo U280 FPGA in front of the BF-2.
 *
 * All three blocks operate on real frame bytes: the director rewrites
 * destination IP/MAC and patches the IPv4 checksum incrementally; the
 * merger does the same for the source fields of host-originated
 * responses. Timing costs (the measured 800 ns round-trip addition,
 * §VII-C) are charged by the enclosing ServerSystem as fixed path
 * delays; power is the measured <0.1 W.
 */

#ifndef HALSIM_CORE_HLB_HH
#define HALSIM_CORE_HLB_HH

#include <cstdint>

#include "funcs/calibration.hh"
#include "net/packet.hh"
#include "obs/hooks.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace halsim::core {

/** HLB power draw reported by Vivado (§VII-C). */
inline constexpr double kHlbPowerW = 0.1;

/**
 * Upper clamp the director enforces on any threshold it is handed —
 * the device boundary's sanity range, well above any link rate the
 * model supports, guarding against a buggy or compromised LBP.
 */
inline constexpr double kMaxFwdThGbps = 400.0;

/** How the director picks the packets to divert (§V-A / DESIGN.md). */
enum class SplitMode : std::uint8_t
{
    /** Byte-accurate token bucket refilled at Fwd_Th (default). */
    TokenBucket,
    /** Divert every k-th packet at the excess fraction, the paper's
     *  literal "round-robin" description. */
    RoundRobin,
    /**
     * Divert whole flows (by flow hash) at the excess fraction.
     * Packet-spraying splits a flow's state across both processors;
     * pinning flows keeps stateful lookups local at the cost of a
     * coarser split. An extension beyond the paper's design,
     * evaluated in bench_ablation_director.
     */
    FlowAffinity,
};

const char *splitModeName(SplitMode m);

/**
 * 1 Traffic monitor: counts received bytes and derives Rate_Rx every
 * epoch (the paper suggests ~10 us).
 */
class TrafficMonitor
{
  public:
    struct Config
    {
        Tick epoch = 10 * kUs;
    };

    TrafficMonitor(EventQueue &eq, Config cfg);
    ~TrafficMonitor();

    /** Account an arriving frame. */
    void
    onFrame(std::size_t bytes)
    {
        receivedBytes_ += bytes;
    }

    /** Rate_Rx of the last completed epoch, Gbps. */
    double rateRxGbps() const { return rateRx_; }

    void start();
    void stop();

  private:
    void tick();

    EventQueue &eq_;
    Config cfg_;
    CallbackEvent tickEvent_;
    std::uint64_t receivedBytes_ = 0;
    double rateRx_ = 0.0;
};

/**
 * 2 Traffic director: when Rate_Rx exceeds Fwd_Th, diverts the
 * excess to the host by rewriting the destination IP/MAC (with an
 * RFC 1624 checksum patch) and letting the eSwitch route it.
 */
class TrafficDirector : public net::PacketSink
{
  public:
    struct Config
    {
        net::Ipv4Addr snic_ip;
        net::Ipv4Addr host_ip;
        net::MacAddr host_mac;
        SplitMode mode = SplitMode::TokenBucket;
        double initial_fwd_th_gbps = 100.0;
        /** Token budget cap, in microseconds of Fwd_Th rate; bounds
         *  post-idle bursts to the SNIC. */
        double bucket_depth_us = 50.0;
    };

    TrafficDirector(EventQueue &eq, Config cfg, TrafficMonitor &monitor,
                    net::PacketSink &out);

    void accept(net::PacketPtr pkt) override;

    /** Threshold currently applied to traffic (Gbps). */
    double fwdThGbps() const { return fwdTh_; }

    /**
     * Set by the LBP (after its comms latency). Clamped to
     * [0, kMaxFwdThGbps] at the device boundary; non-finite values
     * are rejected outright. While a failover override is active the
     * update is recorded as last-known-good but not applied.
     */
    void setFwdTh(double gbps);

    /**
     * Control-channel liveness signal: the LBP pings the FPGA every
     * epoch even when the threshold is unchanged, so the watchdog can
     * distinguish "LBP silent/dead" from "threshold converged".
     */
    void heartbeat();

    /** Tick of the last LBP update or heartbeat that arrived. */
    Tick lastUpdateTick() const { return lastUpdate_; }

    /**
     * Degraded-mode override (watchdog): pin the applied threshold,
     * ignoring LBP updates until exitFailover() restores the
     * last-known-good LBP value.
     */
    void enterFailover(double gbps);
    void exitFailover();
    bool inFailover() const { return failover_; }

    std::uint64_t toSnic() const { return toSnic_; }
    std::uint64_t toHost() const { return toHost_; }

    void
    resetStats()
    {
        toSnic_ = 0;
        toHost_ = 0;
    }

  private:
    bool shouldDivert(const net::Packet &pkt);
    void refill();

    EventQueue &eq_;
    Config cfg_;
    TrafficMonitor &monitor_;
    net::PacketSink &out_;

    double fwdTh_;
    double lastLbpTh_;        //!< last-known-good LBP threshold
    Tick lastUpdate_ = 0;     //!< control-channel liveness timestamp
    bool failover_ = false;   //!< watchdog override active
    // Token-bucket state (bytes).
    double tokens_ = 0.0;
    Tick lastRefill_ = 0;
    // Round-robin state.
    double rrAccum_ = 0.0;

    std::uint64_t toSnic_ = 0;
    std::uint64_t toHost_ = 0;
};

/**
 * 3 Traffic merger: rewrites host-sourced responses to carry the
 * SNIC identity so clients see a single physical source.
 */
class TrafficMerger : public net::PacketSink
{
  public:
    struct Config
    {
        net::Ipv4Addr snic_ip;
        net::Ipv4Addr host_ip;
        net::MacAddr snic_mac;
    };

    TrafficMerger(Config cfg, net::PacketSink &out)
        : cfg_(cfg), out_(out)
    {}

    /** Attach the trace ring (@p eq supplies timestamps): every
     *  host-sourced rewrite records TracePoint::Merge. */
    void
    setTrace(obs::SpanTracer *t, std::uint8_t lane,
             const EventQueue *eq)
    {
        trace_ = t;
        traceLane_ = lane;
        traceEq_ = eq;
    }

    void
    accept(net::PacketPtr pkt) override
    {
        if (pkt->ip().src() == cfg_.host_ip) {
            pkt->ip().rewriteSrc(cfg_.snic_ip);
            pkt->eth().setSrc(cfg_.snic_mac);
            ++merged_;
            obs::tracePacket(trace_,
                             traceEq_ != nullptr ? traceEq_->now() : 0,
                             pkt->id, obs::TracePoint::Merge,
                             traceLane_);
        }
        ++total_;
        out_.accept(std::move(pkt));
    }

    std::uint64_t merged() const { return merged_; }
    std::uint64_t total() const { return total_; }

  private:
    Config cfg_;
    net::PacketSink &out_;
    std::uint64_t merged_ = 0;
    std::uint64_t total_ = 0;

    // Observability (null/inert unless attached).
    obs::SpanTracer *trace_ = nullptr;
    std::uint8_t traceLane_ = 0;
    const EventQueue *traceEq_ = nullptr;
};

} // namespace halsim::core

#endif // HALSIM_CORE_HLB_HH
