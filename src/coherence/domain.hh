/**
 * @file
 * Cache-coherent shared-memory model between the SNIC processor and
 * the host processor — the substrate for HAL's stateful functions
 * (§V-C of the paper).
 *
 * The paper emulates a CXL-SNIC with a dual-socket NUMA server whose
 * sockets share state over UPI. We model the same thing one level
 * down: a two-node MSI directory over 64-byte lines, charging a local
 * cache-hit latency when a node already holds the line in a
 * sufficient state and a remote-transfer latency when the line must
 * move across the (UPI/CXL) interconnect. Stateful functions route
 * every state access through this domain, so coherence traffic and
 * its latency emerge from the access pattern rather than a fudge
 * factor.
 */

#ifndef HALSIM_COHERENCE_DOMAIN_HH
#define HALSIM_COHERENCE_DOMAIN_HH

#include <cstdint>

#include "alg/fixed_map.hh"
#include "sim/types.hh"

namespace halsim::coherence {

/** The two compute nodes sharing state. */
enum class NodeId : std::uint8_t
{
    Snic = 0,
    Host = 1,
};

/**
 * Two-node MSI directory with per-access latency accounting.
 */
class CoherenceDomain
{
  public:
    /** Line already held in a sufficient state (L1/L2 hit). */
    static constexpr Tick kLocalHit = 20 * kNs;
    /** Line fetched from local memory (no remote copy). */
    static constexpr Tick kMemoryFetch = 90 * kNs;
    /**
     * Cache-line transfer or invalidation across UPI/CXL
     * (~150 ns on current parts; the paper's ~0.5 us remote-
     * socket figure is the full packet-delivery path, §III-A).
     */
    static constexpr Tick kRemoteTransfer = 150 * kNs;
    /** Bytes per coherence line. */
    static constexpr std::uint32_t kLineBytes = 64;

    /**
     * Perform a coherent access by @p node to the line containing
     * byte address @p addr.
     *
     * @param addr   state address (functions hash keys into this space)
     * @param node   accessing node
     * @param write  true for a store (needs exclusive ownership)
     * @return latency charged to the access
     */
    Tick access(std::uint64_t addr, NodeId node, bool write);

    /** Aggregate statistics. */
    struct Stats
    {
        std::uint64_t accesses = 0;
        std::uint64_t localHits = 0;
        std::uint64_t memoryFetches = 0;
        std::uint64_t remoteTransfers = 0;
        std::uint64_t invalidations = 0;
    };

    const Stats &stats() const { return stats_; }
    void resetStats() { stats_ = Stats{}; }

    /**
     * Invariant check for tests: no line may be writable on both
     * nodes at once.
     * @retval true the single-writer invariant holds for every line
     */
    bool checkSingleWriterInvariant() const;

  private:
    /** Directory entry for one line. */
    struct Line
    {
        std::uint8_t sharers = 0;    //!< bit per node holding a copy
        std::int8_t owner = -1;      //!< exclusive (writable) node or -1

        bool operator==(const Line &o) const
        {
            return sharers == o.sharers && owner == o.owner;
        }
    };

    alg::FixedMap<std::uint64_t, Line> dir_{1024};
    Stats stats_;
};

/**
 * Convenience accessor handed to a network function while it runs on
 * a particular node: accumulates the latency of its state accesses so
 * the processor model can extend the packet's service time. A null
 * domain means "run stateless" — the paper's §VII-B methodology
 * check ("ignoring the functional correctness") and the PCIe-SNIC
 * case where coherent sharing is unavailable.
 */
class StateContext
{
  public:
    /**
     * Fraction of each non-critical access's latency that remains
     * exposed after out-of-order overlap. A packet's state accesses
     * are independent (distinct keys in a batch), so an OoO core
     * overlaps their misses; the longest access dominates and the
     * rest are mostly hidden.
     */
    static constexpr double kOverlapResidual = 0.15;

    StateContext(CoherenceDomain *domain, NodeId node)
        : domain_(domain), node_(node)
    {}

    /** Coherent access to the line holding @p key. */
    void
    touch(std::uint64_t key, bool write)
    {
        ++accesses_;
        if (domain_ != nullptr) {
            const Tick cost = domain_->access(key, node_, write);
            sum_ += cost;
            if (cost > max_)
                max_ = cost;
        }
    }

    /** Exposed latency of this packet's state accesses: the longest
     *  access plus the overlap residual of the others. */
    Tick
    latency() const
    {
        return max_ + static_cast<Tick>(
                          kOverlapResidual *
                          static_cast<double>(sum_ - max_));
    }

    /** Number of state accesses performed. */
    std::uint64_t accesses() const { return accesses_; }

    NodeId node() const { return node_; }
    bool coherent() const { return domain_ != nullptr; }

  private:
    CoherenceDomain *domain_;
    NodeId node_;
    Tick sum_ = 0;
    Tick max_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace halsim::coherence

#endif // HALSIM_COHERENCE_DOMAIN_HH
