/**
 * @file
 * A delegating net::RateProcess that samples the event queue once per
 * generator epoch. Both the server's TrafficGenerator and the fleet
 * client call sample() every resample epoch (1 ms of simulated time),
 * so wrapping the workload's rate process is how the benchmark reads
 * EventQueue::size()/heapSlots()/executed() from outside the simulator.
 *
 * The wrapper forwards sample()/meanGbps()/name() unchanged and draws
 * nothing from the Rng itself, so a run with it is bit-identical to a
 * run without it (the self-tests check this).
 */

#ifndef PERFBENCH_SAMPLED_RATE_HH
#define PERFBENCH_SAMPLED_RATE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "net/traffic.hh"
#include "sim/event_queue.hh"

namespace perfbench {

/** One engine snapshot, taken when the generator redraws its rate. */
struct QueueSample
{
    halsim::Tick now = 0;
    std::size_t size = 0;        //!< live events
    std::size_t heap_slots = 0;  //!< live events plus tombstones
    std::uint64_t executed = 0;  //!< events executed so far
};

class SampledRate : public halsim::net::RateProcess
{
  public:
    using Probe = std::function<void(const QueueSample &)>;

    SampledRate(std::unique_ptr<halsim::net::RateProcess> inner,
                const halsim::EventQueue &eq, Probe probe)
        : inner_(std::move(inner)), eq_(eq), probe_(std::move(probe))
    {}

    double
    sample(halsim::Rng &rng) override
    {
        probe_(QueueSample{eq_.now(), eq_.size(), eq_.heapSlots(),
                           eq_.executed()});
        return inner_->sample(rng);
    }

    double meanGbps() const override { return inner_->meanGbps(); }
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<halsim::net::RateProcess> inner_;
    const halsim::EventQueue &eq_;
    Probe probe_;
};

} // namespace perfbench

#endif // PERFBENCH_SAMPLED_RATE_HH
