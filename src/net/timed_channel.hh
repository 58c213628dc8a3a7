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
 * still on its wire that way).
 */

#ifndef HALSIM_NET_TIMED_CHANNEL_HH
#define HALSIM_NET_TIMED_CHANNEL_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "net/packet.hh"
#include "sim/event_queue.hh"

namespace halsim::net {

class TimedChannel : public Event
{
  public:
    /** Each entry is handed to @p sink at its delivery tick. */
    TimedChannel(EventQueue &eq, PacketSink &sink) : eq_(eq), sink_(sink)
    {}

    ~TimedChannel() override
    {
        if (scheduled())
            eq_.deschedule(this);
        while (count_ != 0)
            delete popFront().pkt;
    }

    /** Append a delivery at @p when, reserving its order slot now.
     *  @pre when >= eq.now() and nondecreasing per channel. */
    void
    push(Tick when, PacketPtr pkt)
    {
        assert(when >= eq_.now() && "channel delivery in the past");
        assert((count_ == 0 || back().when <= when) &&
               "channel pushes must be time-ordered");
        const std::uint64_t key = eq_.reserveKey();
        const bool arm = count_ == 0;
        append(Slot{when, key, pkt.release()});
        if (arm)
            eq_.scheduleKeyed(this, when, key);
    }

    /** Entries waiting for delivery (including the armed head). */
    std::size_t pending() const { return count_; }

    /** Delivery tick of the entry @p i places behind the head. */
    Tick whenAt(std::size_t i) const { return at(i).when; }

    /** Order key reserved for the entry @p i places behind the head. */
    std::uint64_t keyAt(std::size_t i) const { return at(i).key; }

    void
    execute() override
    {
        // Re-arm for the successor before delivering: its key was
        // reserved at push time, so arming now or later lands in the
        // same (tick, key) slot, and a push made from inside the
        // delivery sees a non-empty channel and does not arm twice.
        const Slot s = popFront();
        if (count_ != 0)
            eq_.scheduleKeyed(this, front().when, front().key);
        sink_.accept(PacketPtr(s.pkt));
    }

  private:
    struct Slot
    {
        Tick when;
        std::uint64_t key;
        Packet *pkt;
    };

    Slot &at(std::size_t i) { return ring_[(head_ + i) & mask()]; }
    const Slot &
    at(std::size_t i) const
    {
        return ring_[(head_ + i) & mask()];
    }
    std::size_t mask() const { return ring_.size() - 1; }
    Slot front() { return ring_[head_]; }
    Slot back() { return at(count_ - 1); }

    void
    append(Slot s)
    {
        if (count_ == ring_.size())
            grow();
        at(count_) = s;
        ++count_;
    }

    Slot
    popFront()
    {
        Slot s = ring_[head_];
        head_ = (head_ + 1) & mask();
        --count_;
        return s;
    }

    void
    grow()
    {
        // Doubling cold path; capacity settles after warmup like the
        // heap's.
        const std::size_t cap = ring_.empty() ? 8 : ring_.size() * 2;
        std::vector<Slot> next(cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = at(i);
        ring_ = std::move(next);
        head_ = 0;
    }

    EventQueue &eq_;
    PacketSink &sink_;
    std::vector<Slot> ring_;   //!< power-of-two circular buffer
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace halsim::net

#endif // HALSIM_NET_TIMED_CHANNEL_HH
