/**
 * @file
 * KeyedFifo: the storage behind every component that keeps a FIFO of
 * timed work off the event heap and arms only its head.
 *
 * Each slot carries its delivery tick, the order key reserved for it
 * with EventQueue::reserveKey() when it was pushed, and a payload.
 * The owner holds one intrusive event, armed with scheduleKeyed() for
 * the head, and re-arms it for the successor on execution; since the
 * keys were reserved at push time, every entry runs in exactly the
 * (tick, key) slot a per-entry schedule() would have given it. The
 * owner pushes in nondecreasing tick order (fixed-delay work).
 *
 * The ring is a power-of-two circular buffer that doubles when full;
 * capacity settles after warmup like the heap's, so steady-state
 * pushes and pops allocate nothing.
 */

#ifndef HALSIM_SIM_KEYED_FIFO_HH
#define HALSIM_SIM_KEYED_FIFO_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace halsim {

template <typename Payload>
class KeyedFifo
{
  public:
    struct Slot
    {
        Tick when;
        std::uint64_t key;
        Payload payload;
    };

    /** Entries held (including the armed head). */
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** The entry @p i places behind the head. */
    const Slot &
    at(std::size_t i) const
    {
        assert(i < count_);
        return ring_[(head_ + i) & mask()];
    }

    const Slot &front() const { return at(0); }
    const Slot &back() const { return at(count_ - 1); }

    /** Append @p s. @pre s.when >= back().when. */
    void
    push(Slot s)
    {
        assert((count_ == 0 || back().when <= s.when) &&
               "keyed FIFO pushes must be time-ordered");
        if (count_ == ring_.size())
            grow();
        ring_[(head_ + count_) & mask()] = s;
        ++count_;
    }

    /** Remove and return the head. @pre !empty(). */
    Slot
    pop()
    {
        assert(count_ != 0);
        Slot s = ring_[head_];
        head_ = (head_ + 1) & mask();
        --count_;
        return s;
    }

  private:
    std::size_t mask() const { return ring_.size() - 1; }

    void
    grow()
    {
        const std::size_t cap = ring_.empty() ? 8 : ring_.size() * 2;
        std::vector<Slot> next(cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = at(i);
        ring_ = std::move(next);
        head_ = 0;
    }

    std::vector<Slot> ring_;   //!< power-of-two circular buffer
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace halsim

#endif // HALSIM_SIM_KEYED_FIFO_HH
