#include "net/packet_pool.hh"

namespace halsim::net {

PacketPool &
PacketPool::local()
{
    thread_local PacketPool pool;
    return pool;
}

std::vector<std::uint8_t>
PacketPool::acquire(std::size_t n)
{
    if (enabled_ && !free_.empty()) {
        std::vector<std::uint8_t> buf = std::move(free_.back());
        free_.pop_back();
        // assign() zero-fills without reallocating while n fits the
        // retained capacity, making a recycled buffer bit-identical
        // to a fresh vector(n, 0).
        buf.assign(n, 0);
        return buf;
    }
    return std::vector<std::uint8_t>(n, 0);
}

void
PacketPool::release(std::vector<std::uint8_t> buf)
{
    if (!enabled_ || free_.size() >= kMaxPooled ||
        buf.capacity() == 0 || buf.capacity() > kMaxKeepCapacity) {
        return;   // let it free normally
    }
    // Freelist push, bounded by kMaxPooled; reuses capacity after
    // warmup.
    free_.push_back(std::move(buf));
}

void
PacketPool::setEnabled(bool on)
{
    enabled_ = on;
    if (!enabled_)
        clear();
}

void
PacketPool::clear()
{
    free_.clear();
    free_.shrink_to_fit();
}

} // namespace halsim::net
