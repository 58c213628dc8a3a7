/**
 * @file
 * One fleet backend: a queueing model of a HAL server behind the L4
 * frontend, with admission control and fault handles.
 *
 * The backend is deliberately lighter than core::ServerSystem — the
 * fleet layer studies *fleet-level* failure behaviour (crash, stall,
 * shedding, retry storms), so each backend models a bounded ingress
 * ring feeding a fixed pool of service cores at a calibrated per-core
 * rate, not the full HLB/LBP datapath. All backends share the run's
 * single EventQueue, keeping the whole fleet one totally ordered
 * deterministic simulation.
 *
 * Drop taxonomy (each with its own counter, so RunResult can
 * reconcile client sends exactly):
 *  - ringDrops():  the bounded ingress ring overflowed (tail drop);
 *  - sheds():      admission control turned the request away early
 *                  because ring occupancy crossed the shed watermark
 *                  (deterministic early-drop, distinct from overflow);
 *  - crashLost():  the packet died in a crashed backend (either it
 *                  arrived while down, or it was queued/in service
 *                  when the crash hit).
 */

#ifndef HALSIM_FLEET_BACKEND_HH
#define HALSIM_FLEET_BACKEND_HH

#include <cstdint>
#include <deque>
#include <string>

#include "net/addr.hh"
#include "net/packet.hh"
#include "obs/hooks.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace halsim::fleet {

class Backend : public net::PacketSink
{
  public:
    static constexpr Tick kServiceOverhead = 2 * kUs; //!< per request
    static constexpr double kCoreActiveW = 8.0;  //!< per busy core
    static constexpr double kCoreIdleW = 1.0;    //!< per idle core

    struct Config
    {
        unsigned cores = 4;             //!< parallel service cores
        double core_rate_gbps = 10.0;   //!< per-core service rate
        std::uint32_t ring_capacity = 512; //!< bounded ingress ring
        /** Shed when ring occupancy reaches this; 0 disables
         *  admission control (the no-shedding ablation). */
        std::uint32_t shed_watermark = 0;
        /** Responses carry this service identity back to the client. */
        net::MacAddr service_mac;
        net::Ipv4Addr service_ip;
        std::string name = "backend";
        /** Fleet index; span args identify the backend with it. */
        unsigned index = 0;
    };

    Backend(EventQueue &eq, Config cfg, net::PacketSink &out);

    /** Ingest one request (may shed, tail-drop, or blackhole). */
    void accept(net::PacketPtr pkt) override;

    // --- fault handles (driven by the FaultInjector) ------------------

    /** Fail-stop: queued + in-service packets are lost, new arrivals
     *  blackhole, power drops to zero. */
    void crash();

    /** Recover from a crash (empty ring, cores idle). */
    void restore();

    /**
     * Hang the service cores: in-flight requests still complete, but
     * nothing new is picked up and health probes fail. A hung DPDK
     * core busy-waits, so the stalled backend draws full active power.
     */
    void setStalled(bool stalled);

    /** What a health probe sees: responsive iff neither crashed nor
     *  stalled. */
    bool probeOk() const { return !crashed_ && !stalled_; }

    bool crashed() const { return crashed_; }
    bool stalled() const { return stalled_; }

    /** Attach span/flight-recorder sinks (null = off): sampled
     *  requests get queue/service spans; shed-watermark upward
     *  crossings fire the Shed flight-recorder trigger. */
    void
    attachSpans(obs::SpanTracer *spans, obs::FlightRecorder *fr,
                std::uint8_t lane)
    {
        spans_ = spans;
        fr_ = fr;
        spanLane_ = lane;
    }

    // --- measurement ---------------------------------------------------

    /** Restart the power/throughput windows at the warmup boundary
     *  (monotone counters are snapshot-differenced instead). */
    void resetStats();

    std::uint64_t served() const { return served_; }
    std::uint64_t servedBytes() const { return servedBytes_; }
    std::uint64_t sheds() const { return sheds_; }
    std::uint64_t ringDrops() const { return ringDrops_; }
    std::uint64_t crashLost() const { return crashLost_; }

    /** All losses inside this backend. */
    std::uint64_t
    losses() const
    {
        return sheds_ + ringDrops_ + crashLost_;
    }

    /** Requests waiting in the ingress ring. */
    std::uint32_t occupancy() const
    {
        return static_cast<std::uint32_t>(queue_.size());
    }

    unsigned inService() const { return busy_; }

    // --- power (feeds the fleet EnergyLedger) --------------------------

    /** Monotone joules since construction. */
    double
    joulesNow() const
    {
        return power_.integral(eq_.now()) / static_cast<double>(kSec);
    }

    double currentW() const { return power_.value(); }

    /** Time-averaged watts since the last resetStats(). */
    double averageW() const { return power_.average(eq_.now()); }

    const Config &config() const { return cfg_; }

  private:
    void tryDispatch();
    void complete(std::uint64_t incarnation, net::PacketPtr pkt);
    void updatePower();

    EventQueue &eq_;
    Config cfg_;
    net::PacketSink &out_;

    std::deque<net::PacketPtr> queue_;
    unsigned busy_ = 0;
    bool crashed_ = false;
    bool stalled_ = false;
    /** Bumped on crash so completions scheduled before the crash
     *  land in a dead world and vanish instead of resurrecting. */
    std::uint64_t incarnation_ = 0;

    std::uint64_t served_ = 0;
    std::uint64_t servedBytes_ = 0;
    std::uint64_t sheds_ = 0;
    std::uint64_t ringDrops_ = 0;
    std::uint64_t crashLost_ = 0;

    TimeWeighted power_;

    obs::SpanTracer *spans_ = nullptr;
    obs::FlightRecorder *fr_ = nullptr;
    std::uint8_t spanLane_ = 0;
    /** True while occupancy sits at/above the shed watermark; the
     *  Shed trigger fires only on the upward crossing. */
    bool shedding_ = false;
};

} // namespace halsim::fleet

#endif // HALSIM_FLEET_BACKEND_HH
