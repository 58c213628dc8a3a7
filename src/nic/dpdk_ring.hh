/**
 * @file
 * DPDK-style receive descriptor ring. Bounded FIFO of packets with
 * the two APIs the paper's LBP algorithm uses: dequeue
 * (rte_eth_rx_burst) and occupancy query (rte_eth_rx_queue_count).
 * Enqueue beyond the descriptor count tail-drops, which is exactly
 * how a NIC behaves when software cannot keep up — the source of the
 * paper's saturation latency/drop behaviour.
 */

#ifndef HALSIM_NIC_DPDK_RING_HH
#define HALSIM_NIC_DPDK_RING_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hh"
#include "obs/hooks.hh"
#include "sim/event_queue.hh"

namespace halsim::nic {

/**
 * Bounded packet FIFO with an enqueue notification hook (the poll
 * core uses it to wake from idle without simulating spin loops).
 *
 * Like the hardware it models, the descriptor array is allocated
 * once at ring setup: `slots_` is sized to the descriptor count in
 * the constructor and enqueue/dequeue are pure index arithmetic, so
 * the steady-state hot path never touches the allocator.
 */
class DpdkRing : public net::PacketSink
{
  public:
    explicit DpdkRing(std::uint32_t descriptors = 512)
        : capacity_(descriptors),
          slots_(descriptors > 0 ? descriptors : 1)
    {}

    /** Hook invoked after a successful enqueue into an empty ring. */
    void setNotify(std::function<void()> fn) { notify_ = std::move(fn); }

    /** Attach the trace ring (@p eq supplies timestamps):
     *  enqueues record RingEnqueue with the post-enqueue occupancy
     *  as arg, tail-drops record Drop. */
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
        if (disabled_ || count_ >= capacity_) {
            ++drops_;
            obs::tracePacket(trace_,
                             traceEq_ != nullptr ? traceEq_->now() : 0,
                             pkt->id, obs::TracePoint::Drop, traceLane_,
                             occupancy());
            return;
        }
        const bool was_empty = count_ == 0;
        bytesIn_ += pkt->size();
        obs::tracePacket(trace_,
                         traceEq_ != nullptr ? traceEq_->now() : 0,
                         pkt->id, obs::TracePoint::RingEnqueue,
                         traceLane_, occupancy() + 1);
        slots_[slot(count_)] = std::move(pkt);
        ++count_;
        if (was_empty && notify_)
            notify_();
    }

    /** rte_eth_rx_burst(1): take the head packet, or null. */
    net::PacketPtr
    dequeue()
    {
        if (count_ == 0)
            return nullptr;
        net::PacketPtr pkt = std::move(slots_[head_]);
        head_ = next(head_);
        --count_;
        return pkt;
    }

    /** rte_eth_rx_queue_count analog. */
    std::uint32_t occupancy() const { return count_; }

    bool empty() const { return count_ == 0; }
    std::uint32_t capacity() const { return capacity_; }
    std::uint64_t drops() const { return drops_; }
    std::uint64_t bytesIn() const { return bytesIn_; }

    /**
     * Fault hook: a disabled ring models a dead receive queue (DMA
     * stopped, descriptors never replenished) — every arrival is
     * dropped and counted. Already-queued packets stay dequeueable.
     */
    void setDisabled(bool disabled) { disabled_ = disabled; }

    bool disabled() const { return disabled_; }

  private:
    /** Slot index of logical position @p i behind the head. */
    std::uint32_t
    slot(std::uint32_t i) const
    {
        const std::uint32_t s = head_ + i;
        const std::uint32_t n =
            static_cast<std::uint32_t>(slots_.size());
        return s >= n ? s - n : s;
    }

    std::uint32_t
    next(std::uint32_t i) const
    {
        const std::uint32_t n =
            static_cast<std::uint32_t>(slots_.size());
        return i + 1 >= n ? 0 : i + 1;
    }

    std::uint32_t capacity_;
    /** Preallocated descriptor slots; never resized after setup. */
    std::vector<net::PacketPtr> slots_;
    std::uint32_t head_ = 0;   //!< oldest occupied slot
    std::uint32_t count_ = 0;  //!< occupied slots
    std::function<void()> notify_;
    std::uint64_t drops_ = 0;
    std::uint64_t bytesIn_ = 0;
    bool disabled_ = false;

    // Observability (null/inert unless attached).
    obs::SpanTracer *trace_ = nullptr;
    std::uint8_t traceLane_ = 0;
    const EventQueue *traceEq_ = nullptr;
};

} // namespace halsim::nic

#endif // HALSIM_NIC_DPDK_RING_HH
