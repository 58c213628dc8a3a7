/**
 * @file
 * The intelligent load-balancing policy (LBP) of §V-B, Algorithm 1:
 * a greedy controller running on one SNIC CPU core. Every epoch it
 * reads the SNIC processor's throughput (accumulated rx_burst
 * returns) and the maximum Rx-queue occupancy
 * (rte_eth_rx_queue_count over all queues); when the threshold is
 * within Delta_TP of the achieved throughput it nudges Fwd_Th up or
 * down by Step_Th according to the low/high occupancy watermarks.
 * The new threshold reaches the FPGA director after the
 * LBP->FPGA Ethernet communication latency.
 */

#ifndef HALSIM_CORE_LBP_HH
#define HALSIM_CORE_LBP_HH

#include <cstdint>
#include <functional>

#include "core/hlb.hh"
#include "proc/processor.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"

namespace halsim {
class Rng;
}

namespace halsim::core {

/**
 * Algorithm 1, with the paper's optional adaptive step extension.
 */
class LoadBalancingPolicy
{
  public:
    struct Config
    {
        Tick epoch = 100 * kUs;         //!< policy period
        double step_gbps = 1.0;         //!< Step_Th
        std::uint32_t wm_low = 4;       //!< WM_Low (ring occupancy)
        std::uint32_t wm_high = 48;     //!< WM_High
        /** Starting Fwd_Th; must lie in [kMinFwdGbps, kMaxFwdGbps]. */
        double initial_fwd_gbps = 5.0;
        /** §V-B: adaptively scale Step_Th with the watermark error to
         *  converge faster. */
        bool adaptive_step = false;
    };

    /** Delta_TP: act only when Fwd_Th is within this of SNIC_TP. */
    static constexpr double kDeltaTpGbps = 3.0;
    /** Bounds Algorithm 1 clamps Fwd_Th to. */
    static constexpr double kMinFwdGbps = 0.5;
    static constexpr double kMaxFwdGbps = 100.0;
    /** FPGA threshold update latency over the Ethernet hop. */
    static constexpr Tick kCommsLatency = 2 * kUs;

    LoadBalancingPolicy(EventQueue &eq, Config cfg,
                        proc::Processor &snic, TrafficDirector &director);
    ~LoadBalancingPolicy();

    void start();
    void stop();

    /**
     * Co-design hook with the core-scaling governor: @p gbps reports
     * the SNIC's *active* capacity (scaledTp over the governor's
     * active-core count). Each epoch clamps Fwd_Th to it, so a
     * consolidated SNIC is never asked to absorb its full static
     * rating — the director decides *where*, the governor *how many*.
     * Unset (default) keeps the static kMaxFwdGbps ceiling only.
     */
    void
    setCapacityProvider(std::function<double()> gbps)
    {
        capacity_ = std::move(gbps);
    }

    /** Threshold currently decided by the policy (Gbps). */
    double fwdTh() const { return fwdTh_; }

    /** SNIC throughput observed in the last epoch (Gbps). */
    double snicTpGbps() const { return snicTp_; }

    std::uint64_t adjustmentsUp() const { return ups_; }
    std::uint64_t adjustmentsDown() const { return downs_; }
    std::uint64_t epochs() const { return epochs_; }

    // --- fault hooks --------------------------------------------------

    /**
     * Impair the LBP->FPGA Ethernet hop: each outgoing update or
     * heartbeat is dropped with @p loss_prob and delayed by an extra
     * @p extra_delay. @p rng (may be null when loss_prob is 0) must
     * outlive the impairment.
     */
    void setControlImpairment(double loss_prob, Tick extra_delay,
                              Rng *rng);

    /** Restore the control channel to nominal. */
    void clearControlImpairment();

    /** Hang (true) or resume (false) the LBP core: while stalled no
     *  epochs run, so no updates and no heartbeats are sent. */
    void setStalled(bool stalled);

    bool stalled() const { return stalled_; }

    /** Updates/heartbeats lost on the impaired control channel. */
    std::uint64_t updatesDropped() const { return updatesDropped_; }

    /** Heartbeats successfully sent to the FPGA. */
    std::uint64_t heartbeats() const { return heartbeats_; }

  private:
    void tick();
    bool sendCtrl(std::function<void()> fn);

    EventQueue &eq_;
    Config cfg_;
    proc::Processor &snic_;
    TrafficDirector &director_;

    CallbackEvent tickEvent_;
    std::function<double()> capacity_;   //!< governor active capacity
    std::uint64_t lastBytes_ = 0;
    double fwdTh_;
    double snicTp_ = 0.0;
    std::uint64_t ups_ = 0;
    std::uint64_t downs_ = 0;
    std::uint64_t epochs_ = 0;

    // Fault state.
    bool stalled_ = false;
    double ctrlLoss_ = 0.0;
    Tick ctrlExtraDelay_ = 0;
    Rng *ctrlRng_ = nullptr;
    std::uint64_t updatesDropped_ = 0;
    std::uint64_t heartbeats_ = 0;
};

} // namespace halsim::core

#endif // HALSIM_CORE_LBP_HH
