/**
 * @file
 * TimedChannel: a keyed FIFO of timed packet deliveries that keeps
 * only its head in the event heap.
 *
 * The hot pipeline stages (link serialization and propagation, fixed
 * path delays) all schedule deliveries in nondecreasing time order,
 * so a stage pushes into its channel, the channel holds one intrusive
 * event for the head, and each entry re-arms the next on execution.
 * The heap then holds one entry per stage, not one per packet in
 * flight.
 *
 * Order is preserved *exactly*: push() reserves the queue's next key
 * at the call site, so every entry occupies the same slot in the
 * (tick, key) total order it would have had as an individual
 * schedule(). Each slot keeps that key, so an owner can ask the queue
 * whether a slot's position has passed (net::Link counts the frames
 * still on its wire that way). The slots live in a KeyedFifo, the
 * ring the fleet client's request timeouts share.
 */

#ifndef HALSIM_NET_TIMED_CHANNEL_HH
#define HALSIM_NET_TIMED_CHANNEL_HH

#include <cassert>
#include <cstdint>

#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/keyed_fifo.hh"

namespace halsim::net {

class TimedChannel : public Event
{
  public:
    /** Each entry is handed to @p sink at its delivery tick. */
    TimedChannel(EventQueue &eq, PacketSink &sink) : eq_(eq), sink_(sink)
    {
        // The head re-arms about once per frame: keep it off the heap.
        eq_.pin(this);
    }

    ~TimedChannel() override
    {
        if (scheduled())
            eq_.deschedule(this);
        if (pinned())
            eq_.unpin(this);
        while (!fifo_.empty())
            delete fifo_.pop().payload;
    }

    /** Append a delivery at @p when, reserving its order slot now.
     *  @pre when >= eq.now() and nondecreasing per channel. */
    void
    push(Tick when, PacketPtr pkt)
    {
        assert(when >= eq_.now() && "channel delivery in the past");
        const std::uint64_t key = eq_.reserveKey();
        const bool arm = fifo_.empty();
        fifo_.push({when, key, pkt.release()});
        if (arm)
            eq_.scheduleKeyed(this, when, key);
    }

    /** Entries waiting for delivery (including the armed head). */
    std::size_t pending() const { return fifo_.size(); }

    /** Delivery tick of the entry @p i places behind the head. */
    Tick whenAt(std::size_t i) const { return fifo_.at(i).when; }

    /** Order key reserved for the entry @p i places behind the head. */
    std::uint64_t keyAt(std::size_t i) const { return fifo_.at(i).key; }

    void
    execute() override
    {
        // Re-arm for the successor before delivering: its key was
        // reserved at push time, so arming now or later lands in the
        // same (tick, key) slot, and a push made from inside the
        // delivery sees a non-empty channel and does not arm twice.
        Packet *const pkt = fifo_.pop().payload;
        if (!fifo_.empty())
            eq_.scheduleKeyed(this, fifo_.front().when, fifo_.front().key);
        sink_.accept(PacketPtr(pkt));
    }

  private:
    EventQueue &eq_;
    PacketSink &sink_;
    KeyedFifo<Packet *> fifo_;
};

} // namespace halsim::net

#endif // HALSIM_NET_TIMED_CHANNEL_HH
