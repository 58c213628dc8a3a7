#include "proc/governor.hh"

#include <algorithm>
#include <numeric>

#include "obs/hooks.hh"
#include "proc/processor.hh"

namespace halsim::proc {

FlowGroupTable::FlowGroupTable(std::uint32_t groups, std::uint32_t cores)
    : groupCore_(groups == 0 ? 1 : groups),
      groupPackets_(groups == 0 ? 1 : groups, 0)
{
    // Initial spread: groups striped round-robin across the cores,
    // matching what RssDistributor's modulo would do group-wise.
    const std::uint32_t n = cores == 0 ? 1 : cores;
    for (std::uint32_t g = 0; g < groupCore_.size(); ++g)
        groupCore_[g] = g % n;
}

std::uint32_t
FlowGroupTable::groupOf(std::uint32_t flow_hash) const
{
    // splitmix64 finalizer: decorrelates the group index from the
    // RSS queue index the plain modulo would pick, so group moves
    // shift load in fine grains.
    std::uint64_t z =
        static_cast<std::uint64_t>(flow_hash) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<std::uint32_t>(
        z % static_cast<std::uint64_t>(groupCore_.size()));
}

void
FlowGroupTable::resetEpoch()
{
    std::fill(groupPackets_.begin(), groupPackets_.end(), 0);
}

GovernorAction
planConsolidation(double avg_busy, std::uint32_t max_occ,
                  unsigned active, unsigned total, std::uint32_t dwell)
{
    // Pressure valve first: a backed-up ring costs p99 immediately,
    // so it overrides the hysteresis entirely.
    if (max_occ >= kGovOccUnpark && active < total)
        return GovernorAction::UnparkAll;
    if (avg_busy > kGovBusyHigh && active < total)
        return GovernorAction::UnparkOne;
    if (avg_busy < kGovBusyLow && active > kGovMinActiveCores &&
        dwell >= kGovMinDwellEpochs)
        return GovernorAction::Park;
    return GovernorAction::None;
}

std::vector<GroupMove>
planRebalance(const std::vector<double> &load,
              const std::vector<bool> &active,
              const std::vector<std::uint32_t> &group_core,
              const std::vector<std::uint64_t> &group_pkts)
{
    std::vector<GroupMove> moves;

    // Donor = most-loaded active core, receiver = least-loaded;
    // ascending index breaks ties so the plan is deterministic.
    int donor = -1, receiver = -1;
    for (std::size_t i = 0; i < load.size(); ++i) {
        if (i < active.size() && !active[i])
            continue;
        if (donor < 0 || load[i] > load[static_cast<std::size_t>(donor)])
            donor = static_cast<int>(i);
        if (receiver < 0 ||
            load[i] < load[static_cast<std::size_t>(receiver)])
            receiver = static_cast<int>(i);
    }
    if (donor < 0 || receiver < 0 || donor == receiver)
        return moves;
    const double gap = load[static_cast<std::size_t>(donor)] -
                       load[static_cast<std::size_t>(receiver)];
    if (gap <= kGovImbalanceThreshold)
        return moves;

    // The donor's groups, with its epoch packet total for load
    // apportioning.
    std::vector<std::uint32_t> donor_groups;
    std::uint64_t donor_pkts = 0;
    for (std::uint32_t g = 0; g < group_core.size(); ++g) {
        if (group_core[g] == static_cast<std::uint32_t>(donor)) {
            donor_groups.push_back(g);
            donor_pkts += group_pkts[g];
        }
    }
    if (donor_groups.size() <= 1 || donor_pkts == 0)
        return moves;

    // Fewest groups that cover half the gap: biggest packet counts
    // first (stable on index for determinism).
    std::stable_sort(donor_groups.begin(), donor_groups.end(),
                     [&group_pkts](std::uint32_t a, std::uint32_t b) {
                         return group_pkts[a] > group_pkts[b];
                     });
    const double donor_load = load[static_cast<std::size_t>(donor)];
    const double target = gap / 2.0;
    double transferred = 0.0;
    for (std::uint32_t g : donor_groups) {
        if (transferred >= target)
            break;
        if (moves.size() + 1 >= donor_groups.size())
            break;   // the donor keeps at least one group
        moves.push_back({g, static_cast<std::uint32_t>(donor),
                         static_cast<std::uint32_t>(receiver)});
        transferred += donor_load * static_cast<double>(group_pkts[g]) /
                       static_cast<double>(donor_pkts);
    }
    return moves;
}

CoreGovernor::CoreGovernor(EventQueue &eq, FlowGroupTable &table,
                           std::vector<PollCore *> cores,
                           std::vector<nic::DpdkRing *> rings)
    : eq_(eq), table_(table), cores_(std::move(cores)),
      rings_(std::move(rings)),
      parked_(cores_.size(), false),
      lastBusySeconds_(cores_.size(), 0.0),
      active_(static_cast<unsigned>(cores_.size())),
      minActive_(active_), maxActive_(active_)
{
    tickEvent_.setCallback([this] { tick(); });
    eq_.scheduleIn(&tickEvent_, kGovEpoch);
}

CoreGovernor::~CoreGovernor()
{
    if (tickEvent_.scheduled())
        eq_.deschedule(&tickEvent_);
}

void
CoreGovernor::resetStats()
{
    epochs_ = 0;
    rebalances_ = 0;
    migrations_ = 0;
    parks_ = 0;
    unparks_ = 0;
    minActive_ = active_;
    maxActive_ = active_;
    stormActs_.fill(0);
    stormIdx_ = 0;
}

void
CoreGovernor::attachSpans(obs::SpanTracer *spans,
                          obs::FlightRecorder *fr, std::uint8_t lane)
{
    spans_ = spans;
    fr_ = fr;
    spanLane_ = lane;
}

void
CoreGovernor::park(unsigned idx)
{
    parked_[idx] = true;
    --active_;
    ++parks_;
    evacuate(idx);
    cores_[idx]->setParked(true);
}

void
CoreGovernor::unpark(unsigned idx)
{
    parked_[idx] = false;
    ++active_;
    ++unparks_;
    // Wake through the forceWake path: no per-packet wake penalty on
    // scale-up (the governor anticipated the load).
    cores_[idx]->setParked(false);
    cores_[idx]->forceWake();
}

void
CoreGovernor::evacuate(unsigned idx)
{
    // Round-robin the parked core's groups over the remaining active
    // cores (ascending group and core index: deterministic); the
    // next rebalance pass smooths any residual imbalance.
    std::vector<std::uint32_t> targets;
    for (unsigned c = 0; c < parked_.size(); ++c)
        if (!parked_[c])
            targets.push_back(c);
    if (targets.empty())
        return;
    std::size_t next = 0;
    for (std::uint32_t g = 0; g < table_.groupCount(); ++g) {
        if (table_.coreOfGroup(g) != idx)
            continue;
        table_.assign(g, targets[next]);
        next = (next + 1) % targets.size();
        ++migrations_;
    }
}

void
CoreGovernor::tick()
{
    ++epochs_;
    const std::uint64_t actsBefore = parks_ + unparks_;
    const double epoch_s =
        static_cast<double>(kGovEpoch) / static_cast<double>(kSec);

    // Per-core busy fraction this epoch (monotone busy-seconds
    // differencing: warmup resets cannot bias it) and the RSS++
    // cycles-then-queue load signal.
    std::vector<double> load(cores_.size(), 0.0);
    std::vector<bool> active(cores_.size());
    double busy_sum = 0.0;
    std::uint32_t max_occ = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const double busy_s = cores_[i]->busySecondsNow();
        const double busy =
            epoch_s > 0.0
                ? std::min(1.0, (busy_s - lastBusySeconds_[i]) / epoch_s)
                : 0.0;
        lastBusySeconds_[i] = busy_s;
        const std::uint32_t occ = rings_[i]->occupancy();
        const double cap =
            static_cast<double>(std::max<std::uint32_t>(
                rings_[i]->capacity(), 1));
        load[i] = busy + static_cast<double>(occ) / cap;
        active[i] = !parked_[i];
        if (!parked_[i]) {
            busy_sum += busy;
            max_occ = std::max(max_occ, occ);
        }
    }
    const double avg_busy =
        active_ > 0 ? busy_sum / static_cast<double>(active_) : 0.0;

    // --- COREIDLE consolidation --------------------------------------
    const GovernorAction action =
        planConsolidation(avg_busy, max_occ, active_,
                          static_cast<unsigned>(cores_.size()), dwell_);
    switch (action) {
      case GovernorAction::UnparkAll:
        for (unsigned i = 0; i < parked_.size(); ++i)
            if (parked_[i])
                unpark(i);
        dwell_ = 0;
        break;
      case GovernorAction::UnparkOne:
        for (unsigned i = 0; i < parked_.size(); ++i) {
            if (parked_[i]) {
                unpark(i);
                break;
            }
        }
        dwell_ = 0;
        break;
      case GovernorAction::Park:
        for (unsigned i = static_cast<unsigned>(parked_.size()); i > 0;
             --i) {
            if (!parked_[i - 1]) {
                park(i - 1);
                break;
            }
        }
        dwell_ = 0;
        break;
      case GovernorAction::None:
        ++dwell_;
        break;
    }

    // --- RSS++ rebalance over the (possibly changed) active set ------
    for (std::size_t i = 0; i < active.size(); ++i)
        active[i] = !parked_[i];
    const std::vector<std::uint32_t> group_core = [this] {
        std::vector<std::uint32_t> gc(table_.groupCount());
        for (std::uint32_t g = 0; g < table_.groupCount(); ++g)
            gc[g] = table_.coreOfGroup(g);
        return gc;
    }();
    const std::vector<GroupMove> moves =
        planRebalance(load, active, group_core, table_.epochPackets());
    if (!moves.empty()) {
        ++rebalances_;
        migrations_ += moves.size();
        for (const GroupMove &m : moves)
            table_.assign(m.group, m.to);
    }

    table_.resetEpoch();
    minActive_ = std::min(minActive_, active_);
    maxActive_ = std::max(maxActive_, active_);

    // Epoch decision span + park/unpark storm detection (pure
    // observers; no-ops unless spans/flight recorder are attached).
    obs::spanMark(spans_, fr_, eq_.now(), obs::SpanKind::GovernorEpoch,
                  spanLane_, static_cast<std::uint32_t>(action),
                  active_);
    const std::uint64_t acts = parks_ + unparks_;
    stormActs_[stormIdx_] =
        static_cast<std::uint32_t>(acts - actsBefore);
    stormIdx_ = (stormIdx_ + 1) % stormActs_.size();
    std::uint32_t recent = 0;
    for (std::uint32_t a : stormActs_)
        recent += a;
    if (recent >= kStormThreshold) {
        obs::frTrigger(fr_, eq_.now(), obs::FrTrigger::Gov, recent);
        stormActs_.fill(0);
    }

    eq_.scheduleIn(&tickEvent_, kGovEpoch);
}

} // namespace halsim::proc
