#include "core/watchdog.hh"

#include <algorithm>

namespace halsim::core {

const char *
healthStateName(HealthState s)
{
    switch (s) {
      case HealthState::Normal: return "normal";
      case HealthState::HostDown: return "host-down";
      case HealthState::SnicDown: return "snic-down";
      case HealthState::AllDown: return "all-down";
      case HealthState::LbpSilent: return "lbp-silent";
    }
    return "?";
}

HealthWatchdog::HealthWatchdog(EventQueue &eq, double lbp_failsafe_gbps,
                               proc::Processor *snic,
                               proc::Processor *host,
                               TrafficDirector *director,
                               LoadBalancingPolicy *lbp,
                               std::function<std::uint64_t()> drop_count)
    : eq_(eq), lbpFailsafeGbps_(lbp_failsafe_gbps), snic_(snic),
      host_(host), director_(director), lbp_(lbp),
      dropCount_(std::move(drop_count))
{
    tickEvent_.setCallback([this] { tick(); });
}

HealthWatchdog::~HealthWatchdog()
{
    if (tickEvent_.scheduled())
        eq_.deschedule(&tickEvent_);
}

void
HealthWatchdog::start()
{
    if (!tickEvent_.scheduled())
        eq_.scheduleIn(&tickEvent_, kEpoch);
}

void
HealthWatchdog::stop()
{
    if (tickEvent_.scheduled())
        eq_.deschedule(&tickEvent_);
    if (intervalOpen_) {
        // Close an outage still in progress so degraded time and
        // drops are accounted; it did not recover, so recoveries and
        // the recovery latency stay untouched.
        stats_.degraded += eq_.now() - degradedSince_;
        stats_.degraded_drops += sampleDrops() - dropsAtEntry_;
        intervalOpen_ = false;
    }
}

std::uint64_t
HealthWatchdog::sampleDrops() const
{
    return dropCount_ ? dropCount_() : 0;
}

void
HealthWatchdog::tick()
{
    ++stats_.epochs;

    std::uint32_t occ = 0;
    if (snic_ != nullptr)
        occ = std::max(occ, snic_->maxRingOccupancy());
    if (host_ != nullptr)
        occ = std::max(occ, host_->maxRingOccupancy());
    stats_.peak_ring_occupancy = std::max(stats_.peak_ring_occupancy, occ);

    const bool snic_ok = snic_ == nullptr || snic_->alive();
    const bool host_ok = host_ == nullptr || host_->alive();

    HealthState want = HealthState::Normal;
    if (!snic_ok && !host_ok) {
        want = HealthState::AllDown;
    } else if (!host_ok) {
        want = HealthState::HostDown;
    } else if (!snic_ok) {
        want = HealthState::SnicDown;
    } else if (lbp_ != nullptr && director_ != nullptr &&
               eq_.now() - director_->lastUpdateTick() >
                   kLbpStalenessBound) {
        want = HealthState::LbpSilent;
    }

    if (want != state_)
        transition(want);
    eq_.scheduleIn(&tickEvent_, kEpoch);
}

void
HealthWatchdog::transition(HealthState next)
{
    const Tick now = eq_.now();
    if (state_ == HealthState::Normal && next != HealthState::Normal) {
        ++stats_.failovers;
        degradedSince_ = now;
        dropsAtEntry_ = sampleDrops();
        intervalOpen_ = true;
    } else if (next == HealthState::Normal && intervalOpen_) {
        ++stats_.recoveries;
        stats_.last_recovery_latency = now - degradedSince_;
        stats_.degraded += now - degradedSince_;
        stats_.degraded_drops += sampleDrops() - dropsAtEntry_;
        intervalOpen_ = false;
    }
    state_ = next;
    applyActions(next);
}

void
HealthWatchdog::applyActions(HealthState s)
{
    switch (s) {
      case HealthState::Normal:
        if (director_ != nullptr)
            director_->exitFailover();
        break;
      case HealthState::HostDown:
        if (director_ != nullptr)
            director_->enterFailover(kHostDownFwdGbps);
        break;
      case HealthState::SnicDown:
      case HealthState::AllDown:
        if (director_ != nullptr)
            director_->enterFailover(kSnicDownFwdGbps);
        // The host cores were likely asleep at low rates; wake them
        // now so the diverted stream does not pay per-packet wake
        // penalties during the failover transient.
        if (host_ != nullptr)
            host_->forceWakeAll();
        break;
      case HealthState::LbpSilent:
        if (director_ != nullptr)
            director_->enterFailover(lbpFailsafeGbps_);
        break;
    }
}

} // namespace halsim::core
