#include "core/lbp.hh"

#include <algorithm>
#include <utility>

#include "sim/rng.hh"

namespace halsim::core {

LoadBalancingPolicy::LoadBalancingPolicy(EventQueue &eq, Config cfg,
                                         proc::Processor &snic,
                                         TrafficDirector &director)
    : eq_(eq), cfg_(cfg), snic_(snic), director_(director),
      fwdTh_(cfg.initial_fwd_gbps)
{
    tickEvent_.setCallback([this] { tick(); });
}

LoadBalancingPolicy::~LoadBalancingPolicy()
{
    stop();
}

void
LoadBalancingPolicy::start()
{
    lastBytes_ = snic_.processedBytes();
    director_.setFwdTh(fwdTh_);
    if (!tickEvent_.scheduled())
        eq_.scheduleIn(&tickEvent_, cfg_.epoch);
}

void
LoadBalancingPolicy::stop()
{
    if (tickEvent_.scheduled())
        eq_.deschedule(&tickEvent_);
}

void
LoadBalancingPolicy::setControlImpairment(double loss_prob,
                                          Tick extra_delay, Rng *rng)
{
    ctrlLoss_ = loss_prob;
    ctrlExtraDelay_ = extra_delay;
    ctrlRng_ = rng;
}

void
LoadBalancingPolicy::clearControlImpairment()
{
    ctrlLoss_ = 0.0;
    ctrlExtraDelay_ = 0;
    ctrlRng_ = nullptr;
}

void
LoadBalancingPolicy::setStalled(bool stalled)
{
    if (stalled_ == stalled)
        return;
    stalled_ = stalled;
    if (stalled) {
        if (tickEvent_.scheduled())
            eq_.deschedule(&tickEvent_);
    } else {
        // Resume with a fresh throughput baseline so the first epoch
        // after the hang doesn't read the whole outage as one burst.
        lastBytes_ = snic_.processedBytes();
        if (!tickEvent_.scheduled())
            eq_.scheduleIn(&tickEvent_, cfg_.epoch);
    }
}

bool
LoadBalancingPolicy::sendCtrl(std::function<void()> fn)
{
    if (ctrlRng_ != nullptr && ctrlLoss_ > 0.0 &&
        ctrlRng_->chance(ctrlLoss_)) {
        ++updatesDropped_;
        return false;
    }
    eq_.scheduleFnIn(std::move(fn), kCommsLatency + ctrlExtraDelay_);
    return true;
}

void
LoadBalancingPolicy::tick()
{
    if (stalled_)
        return;
    ++epochs_;
    bool update_sent = false;
    // SNIC_TP: accumulated rx_burst returns over the epoch.
    const std::uint64_t bytes = snic_.processedBytes();
    snicTp_ = gbps(bytes - lastBytes_, cfg_.epoch);
    lastBytes_ = bytes;

    // Algorithm 1: only act when Fwd_Th has converged down to the
    // achieved throughput (the SNIC is the binding constraint).
    const double before = fwdTh_;
    if (fwdTh_ < snicTp_ + kDeltaTpGbps) {
        const std::uint32_t occ = snic_.maxRingOccupancy();
        double step = cfg_.step_gbps;
        if (cfg_.adaptive_step) {
            // Optional extension (§V-B): scale the step with how far
            // the occupancy sits from the watermark band.
            if (occ > cfg_.wm_high)
                step *= 1.0 + static_cast<double>(occ - cfg_.wm_high) /
                                  cfg_.wm_high;
            else if (occ < cfg_.wm_low && occ == 0)
                step *= 2.0;
        }
        if (occ < cfg_.wm_low)
            fwdTh_ += step;
        else if (occ > cfg_.wm_high)
            fwdTh_ -= step;
        fwdTh_ = std::clamp(fwdTh_, kMinFwdGbps, kMaxFwdGbps);
    }
    if (capacity_) {
        // Governor co-design: never steer more at the SNIC than its
        // currently-active cores can serve (floored at kMinFwdGbps so
        // the threshold stays actionable). Applied outside the convergence
        // branch on purpose: when load falls off a converged-high
        // threshold, Algorithm 1 goes quiet, but the governor keeps
        // parking — the clamp must track the shrinking active set, or
        // the frozen threshold would steer a returning burst at cores
        // that are asleep.
        fwdTh_ = std::min(fwdTh_, std::max(kMinFwdGbps, capacity_()));
    }
    if (fwdTh_ > before)
        ++ups_;
    else if (fwdTh_ < before)
        ++downs_;
    if (fwdTh_ != before) {
        // The decision travels to the FPGA over Ethernet (and may
        // be lost or delayed on an impaired channel).
        const double decided = fwdTh_;
        update_sent = sendCtrl(
            [this, decided] { director_.setFwdTh(decided); });
    }
    // Keep-alive toward the FPGA when no update went out this epoch,
    // so the watchdog's staleness bound measures channel/LBP health
    // rather than threshold convergence.
    if (!update_sent && sendCtrl([this] { director_.heartbeat(); }))
        ++heartbeats_;
    eq_.scheduleIn(&tickEvent_, cfg_.epoch);
}

} // namespace halsim::core
