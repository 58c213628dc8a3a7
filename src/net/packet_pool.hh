/**
 * @file
 * Thread-local recycling pool for packet frame buffers.
 *
 * Steady-state traffic generation churns through millions of frames;
 * without recycling, every makeUdpPacket() heap-allocates a frame
 * buffer and every packet teardown frees one. The pool keeps retired
 * buffers (capacity intact) and hands them back zeroed, so the fast
 * path settles into zero frame allocations.
 *
 * The pool is thread-local: each sweep worker owns a private
 * freelist, so parallel operating points never contend or share
 * buffers. Recycling reuses whole std::vector objects — never raw
 * memory — so ASan/UBSan observe ordinary container semantics and
 * need no annotations. Pooling is observationally pure: a recycled
 * buffer is indistinguishable from a fresh zeroed one, which
 * test_determinism verifies by bit-comparing runs with the pool on
 * and off.
 */

#ifndef HALSIM_NET_PACKET_POOL_HH
#define HALSIM_NET_PACKET_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace halsim::net {

class PacketPool
{
  public:
    /** This thread's pool (created on first use). */
    static PacketPool &local();

    /** A zero-filled buffer of exactly @p n bytes. */
    std::vector<std::uint8_t> acquire(std::size_t n);

    /** Retire a frame buffer, keeping its capacity for reuse. */
    void release(std::vector<std::uint8_t> buf);

    /**
     * Toggle recycling (for determinism A/B tests). Disabling drops
     * all pooled buffers; acquire/release degrade to plain
     * allocate/free.
     */
    void setEnabled(bool on);

    bool enabled() const { return enabled_; }

    /** Buffers currently held for reuse. */
    std::size_t pooled() const { return free_.size(); }

    /** Drop every pooled buffer. */
    void clear();

  private:
    /** Don't hoard more than this many retired buffers... */
    static constexpr std::size_t kMaxPooled = 8192;
    /** ...or buffers grown beyond this capacity (jumbo outliers). */
    static constexpr std::size_t kMaxKeepCapacity = 64 * 1024;

    std::vector<std::vector<std::uint8_t>> free_;
    bool enabled_ = true;
};

} // namespace halsim::net

#endif // HALSIM_NET_PACKET_POOL_HH
