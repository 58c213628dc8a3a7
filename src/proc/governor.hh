/**
 * @file
 * Adaptive core-scaling governor (ROADMAP item 3): RSS++-style
 * flow-group-to-core indirection rebalanced per epoch, plus
 * COREIDLE-style core consolidation so idle cores fall through the
 * sleep path into deep sleep.
 *
 * Policy/mechanism split:
 *  - FlowGroupTable is the *mechanism*: a splitmix64-hashed
 *    flow-group indirection table sitting where RssDistributor used
 *    to; steering changes are O(1) table writes, never packet moves.
 *  - CoreGovernor is the *policy*: a deterministic, epoch-driven
 *    controller that (a) rebalances groups from the most- to the
 *    least-loaded active core (load = busy cycles, then queue
 *    occupancy, the RSS++ signal order) moving the fewest groups
 *    that close the gap, and (b) shrinks/grows the active-core set
 *    under hysteresis (low/high busy-fraction watermarks with a
 *    min-dwell) — parked cores drain their rings and drop to zero
 *    watts; scale-up wakes them through the existing forceWake path.
 *
 * The per-epoch planning steps are pure free functions
 * (planConsolidation / planRebalance) so tests can check the
 * governor against an exact reference without running a simulation.
 */

#ifndef HALSIM_PROC_GOVERNOR_HH
#define HALSIM_PROC_GOVERNOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "net/packet.hh"
#include "nic/dpdk_ring.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"

namespace halsim::obs {
class SpanTracer;
class FlightRecorder;
} // namespace halsim::obs

namespace halsim::proc {

class PollCore;

/**
 * Core-scaling governor switch (the ServerConfig power.governor
 * path). One epoch does at most one consolidation action (park one /
 * unpark one / unpark all) plus one rebalance pass over the active
 * set; the constants below fix its operating point.
 */
struct GovernorPolicy
{
    bool enabled = false;
};

/** Governor period. */
inline constexpr Tick kGovEpoch = 200 * kUs;
/** Flow-group indirection-table entries. */
inline constexpr std::uint32_t kGovGroups = 256;
/** Park one core below this average busy fraction. */
inline constexpr double kGovBusyLow = 0.25;
/** Unpark one core above this average busy fraction. */
inline constexpr double kGovBusyHigh = 0.85;
/** Emergency pressure valve: any ring above this occupancy unparks
 *  every core at once (burst p99 protection). */
inline constexpr std::uint32_t kGovOccUnpark = 32;
/** Epochs the active set must dwell before the next park. */
inline constexpr std::uint32_t kGovMinDwellEpochs = 5;
/** Never park below this many active cores. */
inline constexpr unsigned kGovMinActiveCores = 1;
/** Rebalance when max-min active-core load exceeds this. */
inline constexpr double kGovImbalanceThreshold = 0.10;

/**
 * The flow-group indirection table (RSS++ / fastclick
 * DeviceBalancer): flowHash -> splitmix64 -> group -> core ring.
 * Replaces the static modulo spread of RssDistributor when the
 * governor is armed. Tracks per-group packet counts per epoch so the
 * governor can estimate how much load a group move transfers.
 */
class FlowGroupTable : public net::PacketSink
{
  public:
    FlowGroupTable(std::uint32_t groups, std::uint32_t cores);

    /** Register core @p ring; rings index in registration order. */
    void addQueue(nic::DpdkRing *ring) { queues_.push_back(ring); }

    void
    accept(net::PacketPtr pkt) override
    {
        if (queues_.empty())
            return;
        const std::uint32_t g = groupOf(pkt->flowHash);
        ++groupPackets_[g];
        queues_[groupCore_[g]]->accept(std::move(pkt));
    }

    /** splitmix64 finalizer over the flow hash, mod the group count. */
    std::uint32_t groupOf(std::uint32_t flow_hash) const;

    std::uint32_t groupCount() const
    {
        return static_cast<std::uint32_t>(groupCore_.size());
    }

    std::uint32_t coreOfGroup(std::uint32_t group) const
    {
        return groupCore_[group];
    }

    /** Steer @p group to @p core (an O(1) indirection write). */
    void assign(std::uint32_t group, std::uint32_t core)
    {
        groupCore_[group] = core;
    }

    /** Packets accepted into @p group since the last epoch reset. */
    std::uint64_t groupPackets(std::uint32_t group) const
    {
        return groupPackets_[group];
    }

    const std::vector<std::uint64_t> &epochPackets() const
    {
        return groupPackets_;
    }

    /** Zero the per-group packet counters (end of a governor epoch). */
    void resetEpoch();

  private:
    std::vector<nic::DpdkRing *> queues_;
    std::vector<std::uint32_t> groupCore_;
    std::vector<std::uint64_t> groupPackets_;
};

// --- pure per-epoch planning (exact-reference testable) --------------

/** One consolidation decision. */
enum class GovernorAction : std::uint8_t
{
    None,
    Park,       //!< park the highest-index active core
    UnparkOne,  //!< wake the lowest-index parked core
    UnparkAll,  //!< occupancy pressure: wake everything at once
};

/**
 * COREIDLE consolidation with hysteresis. @p avg_busy is the mean
 * busy fraction over *active* cores this epoch, @p max_occ the
 * maximum ring occupancy over active cores, @p active / @p total the
 * active and configured core counts, @p dwell the epochs since the
 * active set last changed.
 */
GovernorAction planConsolidation(double avg_busy, std::uint32_t max_occ,
                                 unsigned active, unsigned total,
                                 std::uint32_t dwell);

/** One group steering change decided by a rebalance pass. */
struct GroupMove
{
    std::uint32_t group;
    std::uint32_t from;
    std::uint32_t to;
};

/**
 * RSS++ rebalance: when the spread between the most- and
 * least-loaded *active* cores exceeds kGovImbalanceThreshold, move
 * the fewest groups (largest packet counts first, ascending group
 * index on ties) from the donor to the receiver until half the gap
 * is covered, estimating each group's load share from its epoch
 * packet count. The donor always keeps at least one group.
 *
 * @p load       per-core load (busy fraction + occupancy/capacity)
 * @p active     per-core active mask (parked cores are skipped)
 * @p group_core current group->core table
 * @p group_pkts per-group packets this epoch
 */
std::vector<GroupMove>
planRebalance(const std::vector<double> &load,
              const std::vector<bool> &active,
              const std::vector<std::uint32_t> &group_core,
              const std::vector<std::uint64_t> &group_pkts);

/**
 * The epoch-driven governor attached to one Processor's poll cores.
 * Runs on the owning processor's event queue like any other
 * component, so governor-armed runs stay bit-identical across sweep
 * thread counts.
 */
class CoreGovernor
{
  public:
    /** Park/unpark storm trigger: this many actions within the last
     *  kStormWindow epochs fires the flight recorder (thrash, not
     *  adaptation). */
    static constexpr std::uint32_t kStormWindow = 8;
    static constexpr std::uint32_t kStormThreshold = 4;

    CoreGovernor(EventQueue &eq, FlowGroupTable &table,
                 std::vector<PollCore *> cores,
                 std::vector<nic::DpdkRing *> rings);
    ~CoreGovernor();

    CoreGovernor(const CoreGovernor &) = delete;
    CoreGovernor &operator=(const CoreGovernor &) = delete;

    /** Attach span/flight-recorder sinks (null = off): every epoch
     *  emits a GovernorEpoch mark, and a park/unpark storm fires the
     *  Gov trigger. Read-only observers; see DESIGN.md §16. */
    void attachSpans(obs::SpanTracer *spans, obs::FlightRecorder *fr,
                     std::uint8_t lane);

    unsigned activeCores() const { return active_; }

    bool coreActive(unsigned idx) const
    {
        return idx < parked_.size() && !parked_[idx];
    }

    // --- per-epoch counters (reset at the warmup boundary) ----------
    std::uint64_t epochs() const { return epochs_; }
    std::uint64_t rebalances() const { return rebalances_; }
    std::uint64_t migrations() const { return migrations_; }
    std::uint64_t parks() const { return parks_; }
    std::uint64_t unparks() const { return unparks_; }

    /** Extremes of the active-core count observed since reset. */
    unsigned minActiveCores() const { return minActive_; }
    unsigned maxActiveCores() const { return maxActive_; }

    void resetStats();

  private:
    void tick();
    void park(unsigned idx);
    void unpark(unsigned idx);
    /** Reassign every group on @p idx round-robin over active cores. */
    void evacuate(unsigned idx);

    EventQueue &eq_;
    FlowGroupTable &table_;
    std::vector<PollCore *> cores_;
    std::vector<nic::DpdkRing *> rings_;

    CallbackEvent tickEvent_;
    std::vector<bool> parked_;
    std::vector<double> lastBusySeconds_;
    unsigned active_;
    std::uint32_t dwell_ = 0;

    std::uint64_t epochs_ = 0;
    std::uint64_t rebalances_ = 0;
    std::uint64_t migrations_ = 0;
    std::uint64_t parks_ = 0;
    std::uint64_t unparks_ = 0;
    unsigned minActive_;
    unsigned maxActive_;

    // Span/flight-recorder sinks (null = off) and the sliding
    // park/unpark storm window.
    obs::SpanTracer *spans_ = nullptr;
    obs::FlightRecorder *fr_ = nullptr;
    std::uint8_t spanLane_ = 0;
    std::array<std::uint32_t, kStormWindow> stormActs_{};
    std::size_t stormIdx_ = 0;
};

} // namespace halsim::proc

#endif // HALSIM_PROC_GOVERNOR_HH
