#include "coherence/domain.hh"

namespace halsim::coherence {

Tick
CoherenceDomain::access(std::uint64_t addr, NodeId node, bool write)
{
    ++stats_.accesses;
    const std::uint64_t line_id = addr / kLineBytes;
    const std::uint8_t me = std::uint8_t{1}
                            << static_cast<std::uint8_t>(node);
    const std::uint8_t other = me ^ 0b11;

    Line *line = dir_.find(line_id);
    if (line == nullptr) {
        dir_.put(line_id, Line{});
        line = dir_.find(line_id);
    }

    if (!write) {
        if (line->sharers & me) {
            // Shared or exclusive here already: plain hit.
            ++stats_.localHits;
            return kLocalHit;
        }
        if (line->owner >= 0 &&
            (std::uint8_t{1} << line->owner) == other) {
            // Dirty on the other node: transfer + downgrade to shared.
            line->owner = -1;
            line->sharers |= me;
            ++stats_.remoteTransfers;
            return kRemoteTransfer;
        }
        // Clean (possibly shared remotely): fetch from memory.
        line->sharers |= me;
        ++stats_.memoryFetches;
        return kMemoryFetch;
    }

    // Write path: need exclusive ownership.
    if (line->owner == static_cast<std::int8_t>(node)) {
        ++stats_.localHits;
        return kLocalHit;
    }
    Tick cost = 0;
    if (line->sharers & other) {
        // Invalidate the remote copy (dirty transfer if it owned it).
        ++stats_.invalidations;
        cost = kRemoteTransfer;
        ++stats_.remoteTransfers;
    } else if (line->sharers & me) {
        // Upgrade S->M locally.
        ++stats_.localHits;
        cost = kLocalHit;
    } else {
        ++stats_.memoryFetches;
        cost = kMemoryFetch;
    }
    line->sharers = me;
    line->owner = static_cast<std::int8_t>(node);
    return cost;
}

bool
CoherenceDomain::checkSingleWriterInvariant() const
{
    bool ok = true;
    dir_.forEach([&](const std::uint64_t &, const Line &line) {
        if (line.owner >= 0) {
            // An owned line must be held by exactly its owner.
            const std::uint8_t bit = std::uint8_t{1} << line.owner;
            if (line.sharers != bit)
                ok = false;
        }
        if (line.sharers > 0b11)
            ok = false;
    });
    return ok;
}

} // namespace halsim::coherence
