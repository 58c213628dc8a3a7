/**
 * @file
 * Client-side traffic generation: constant-rate sweeps and the
 * paper's log-normal rate-modulated datacenter traces (Fig. 8).
 */

#ifndef HALSIM_NET_TRAFFIC_HH
#define HALSIM_NET_TRAFFIC_HH

#include <functional>
#include <memory>
#include <string>

#include "net/packet.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace halsim::net {

/** Addressing for one request flow. */
struct FlowEndpoints
{
    MacAddr src_mac = MacAddr::fromUint(0x020000000001);
    MacAddr dst_mac = MacAddr::fromUint(0x020000000002);
    Ipv4Addr src_ip = Ipv4Addr(10, 0, 0, 1);
    Ipv4Addr dst_ip = Ipv4Addr(10, 0, 0, 2);
    std::uint16_t src_port = 40000;
    std::uint16_t dst_port = 9000;
};

/**
 * A stochastic offered-rate process, sampled once per resample
 * epoch. Implementations must be deterministic given the Rng.
 */
class RateProcess
{
  public:
    virtual ~RateProcess() = default;

    /** Draw the offered rate (Gbps) for the next epoch. */
    virtual double sample(Rng &rng) = 0;

    /** Long-run mean rate, for reporting. */
    virtual double meanGbps() const = 0;

    virtual std::string name() const = 0;
};

/** Fixed offered rate, for the rate sweeps of Figs. 2/4/5/9. */
class ConstantRate : public RateProcess
{
  public:
    explicit ConstantRate(double gbps) : gbps_(gbps) {}

    double sample(Rng &) override { return gbps_; }
    double meanGbps() const override { return gbps_; }
    std::string name() const override { return "constant"; }

  private:
    double gbps_;
};

/**
 * Log-normal rate with truncation at the line rate, matching the
 * paper's Fig. 8 trace construction: rate ~ min(exp(N(mu, sigma)),
 * line_rate). The paper's (mu, sigma) pairs produce the reported
 * 1.6 / 5.2 / 10.9 Gbps averages only because of the truncation —
 * cache's sigma = 7.55 would otherwise explode.
 */
class LognormalRate : public RateProcess
{
  public:
    LognormalRate(double mu, double sigma, double cap_gbps,
                  std::string label);

    double sample(Rng &rng) override;
    double meanGbps() const override { return mean_; }
    std::string name() const override { return label_; }

    double mu() const { return mu_; }
    double sigma() const { return sigma_; }

  private:
    double mu_, sigma_, cap_;
    double mean_;   //!< numerically integrated truncated mean
    std::string label_;
};

/**
 * Deterministic diurnal load: a phase-stepped raised cosine between
 * @p trough_gbps and @p peak_gbps over @p period_samples rate draws.
 * No randomness at all — every sample() advances the phase by one
 * step — so governor sweeps over it are exactly reproducible and the
 * committed bench artifact is bit-stable. Models the day/night swing
 * a core-scaling governor exists to exploit.
 */
class DiurnalRate : public RateProcess
{
  public:
    DiurnalRate(double trough_gbps, double peak_gbps,
                std::uint32_t period_samples);

    double sample(Rng &rng) override;
    double meanGbps() const override { return mean_; }
    std::string name() const override { return "diurnal"; }

  private:
    double trough_, peak_;
    std::uint32_t period_, phase_ = 0;
    double mean_;
};

/**
 * Deterministic burst train: @p base_gbps background with a
 * @p burst_gbps plateau of @p burst_samples draws every
 * @p period_samples. Exercises the governor's emergency unpark path
 * (occupancy pressure valve) and the p99-at-peak acceptance gate.
 */
class BurstRate : public RateProcess
{
  public:
    BurstRate(double base_gbps, double burst_gbps,
              std::uint32_t period_samples, std::uint32_t burst_samples);

    double sample(Rng &rng) override;
    double meanGbps() const override { return mean_; }
    std::string name() const override { return "burst"; }

  private:
    double base_, burst_;
    std::uint32_t period_, burstLen_, phase_ = 0;
    double mean_;
};

/** The three Meta datacenter workloads of Fig. 8. */
enum class TraceKind
{
    Web,     //!< mu -1.37, sigma 1.97, avg 1.6 Gbps
    Cache,   //!< mu -9.00, sigma 7.55, avg 5.2 Gbps
    Hadoop,  //!< mu -4.18, sigma 6.56, avg 10.9 Gbps
};

const char *traceName(TraceKind k);

/** Factory for the paper's trace processes at a given line rate. */
std::unique_ptr<RateProcess> makeTrace(TraceKind kind,
                                       double line_rate_gbps = 100.0);

/** Progress floor for a sampled offered rate (Gbps): a source never
 *  stalls on a zero draw. */
inline constexpr double kMinRateGbps = 0.01;

/**
 * The client-side packet source. Emits real UDP frames into a sink
 * at the rate dictated by a RateProcess, re-sampled every epoch.
 * Within an epoch packets are evenly spaced (the burstiness comes
 * from rate modulation across epochs, as in the paper's traces).
 */
class TrafficGenerator
{
  public:
    /** Fills a freshly built packet's payload with a request. */
    using PayloadFn = std::function<void(Packet &)>;

    struct Config
    {
        FlowEndpoints endpoints;
        std::size_t frame_bytes = kMtuFrameBytes;
        Tick resample_epoch = 1 * kMs;  //!< rate re-draw period
        std::uint64_t seed = 1;
    };

    TrafficGenerator(EventQueue &eq, Config cfg,
                     std::unique_ptr<RateProcess> rate, PacketSink &sink);
    ~TrafficGenerator();

    /** Install the request-payload writer (may be empty). */
    void setPayloadFn(PayloadFn fn) { payloadFn_ = std::move(fn); }

    /** Begin emitting at the current simulated time until @p until. */
    void start(Tick until);

    /** Stop emitting immediately. */
    void stop();

    std::uint64_t sentFrames() const { return sentFrames_; }
    std::uint64_t sentBytes() const { return sentBytes_; }

    /** Offered-rate samples drawn so far (for Fig. 8 reporting). */
    const Accumulator &offeredRate() const { return offered_; }

    /** Current epoch's offered rate (Gbps). */
    double currentRate() const { return rateGbps_; }

  private:
    void emitOne();
    void resample();

    EventQueue &eq_;
    Config cfg_;
    std::unique_ptr<RateProcess> rate_;
    PacketSink &sink_;
    PayloadFn payloadFn_;
    Rng rng_;

    CallbackEvent emitEvent_;
    CallbackEvent resampleEvent_;

    Tick until_ = 0;
    double rateGbps_ = 0.0;
    std::uint64_t nextId_ = 1;
    std::uint64_t sentFrames_ = 0;
    std::uint64_t sentBytes_ = 0;
    Accumulator offered_;
};

} // namespace halsim::net

#endif // HALSIM_NET_TRAFFIC_HH
