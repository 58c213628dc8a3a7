/**
 * @file
 * FleetSystem: N independent backend servers behind the health-checked
 * L4 frontend, driven by the hardened fleet client — the fleet
 * resilience layer ROADMAP item 1 calls for on the way from the
 * paper's single SNIC-host server to a production cluster.
 *
 * Everything shares one EventQueue, so an entire fleet drill (crash,
 * stall, probe loss, retry storm) is a single totally ordered
 * deterministic simulation: the same seed and FaultPlan reproduce a
 * bit-identical RunResult regardless of sweep thread count
 * (test_determinism holds this).
 *
 * run() mirrors ServerSystem::run(): warmup, measurement window with
 * energy/SLO windows opened at the boundary, then — unlike the fixed
 * 10 ms server drain — a run **to quiescence**. Every event source is
 * bounded (emission and probing stop at their horizons, retries are
 * budget-bounded), so after the drain the client's attempt ledger
 * reconciles exactly: sends = completions + duplicates + fleet
 * losses, with every loss carrying a distinct drop reason.
 */

#ifndef HALSIM_FLEET_FLEET_HH
#define HALSIM_FLEET_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/server.hh"
#include "core/sweep.hh"
#include "fault/fault.hh"
#include "fleet/backend.hh"
#include "fleet/client.hh"
#include "fleet/frontend.hh"
#include "fleet/health.hh"
#include "net/link.hh"
#include "obs/energy.hh"
#include "obs/obs.hh"
#include "obs/slo.hh"
#include "sim/event_queue.hh"

namespace halsim::fleet {

/** Full fleet configuration. */
struct FleetConfig
{
    unsigned backends = 4;

    /** Template for every backend; service identities are assigned
     *  per backend by the system. */
    Backend::Config backend;

    FleetClient::Config client;
    Frontend::Config frontend;

    std::uint64_t seed = 1;

    /** Scheduled fault events, times relative to run() start. */
    fault::FaultPlan faults;

    obs::ObsConfig obs;
    obs::SloConfig slo;

    /**
     * Check the whole configuration in one pass, returning every
     * violation (each naming the offending field). Empty means valid;
     * FleetSystem's constructor throws std::invalid_argument joining
     * all of them.
     */
    std::vector<std::string> validate() const;
};

/** Feeds responses through the frontend's flow bookkeeping on their
 *  way back to the client. */
class ResponseTap : public net::PacketSink
{
  public:
    ResponseTap(Frontend &fe, net::PacketSink &next)
        : fe_(fe), next_(next)
    {}

    void
    accept(net::PacketPtr pkt) override
    {
        fe_.onResponse(*pkt);
        next_.accept(std::move(pkt));
    }

  private:
    Frontend &fe_;
    net::PacketSink &next_;
};

class FleetSystem
{
  public:
    FleetSystem(EventQueue &eq, FleetConfig cfg);
    ~FleetSystem();

    FleetSystem(const FleetSystem &) = delete;
    FleetSystem &operator=(const FleetSystem &) = delete;

    /**
     * Drive @p rate through the fleet. Same contract as
     * ServerSystem::run(), except the post-window drain runs the
     * queue to quiescence so the attempt ledger closes exactly.
     */
    core::RunResult run(std::unique_ptr<net::RateProcess> rate,
                        Tick warmup, Tick measure,
                        Tick resample_epoch = 1 * kMs);

    // --- test/inspection hooks -----------------------------------------
    const FleetConfig &config() const { return cfg_; }
    FleetClient &client() { return *client_; }
    Frontend &frontend() { return *frontend_; }
    HealthChecker &health() { return *health_; }
    Backend &backend(unsigned i) { return *backends_[i]; }
    unsigned nBackends() const
    {
        return static_cast<unsigned>(backends_.size());
    }

    /** Null unless cfg.obs enabled stats or tracing. */
    obs::Observability *obs() { return obs_.get(); }
    const obs::Observability *obs() const { return obs_.get(); }

  private:
    /** Every loss inside the fleet (backends, links, unroutable). */
    std::uint64_t totalLosses() const;
    void buildObs();

    EventQueue &eq_;
    FleetConfig cfg_;

    std::unique_ptr<Frontend> frontend_;
    std::unique_ptr<net::Link> ingressLink_;  //!< client -> frontend
    std::unique_ptr<FleetClient> client_;
    std::unique_ptr<ResponseTap> tap_;
    std::vector<std::unique_ptr<net::Link>> uplinks_;   //!< backend -> tap
    std::vector<std::unique_ptr<Backend>> backends_;
    std::vector<std::unique_ptr<net::Link>> downlinks_; //!< frontend -> backend
    std::unique_ptr<HealthChecker> health_;

    std::unique_ptr<fault::FaultInjector> injector_;

    /** Per-backend accounts + static baselines; sums exactly. */
    obs::EnergyLedger energy_;

    std::unique_ptr<obs::SloMonitor> slo_;
    std::unique_ptr<obs::Observability> obs_;
};

/** One operating point of a fleet sweep. */
struct FleetSweepPoint
{
    FleetConfig cfg;
    double rate_gbps = 0.0;
    Tick warmup = 20 * kMs;
    Tick measure = 100 * kMs;
    Tick resample = 1 * kMs;
    std::string label;
};

/**
 * Run every point (possibly in parallel) and return results in input
 * order, reusing the standard sweep harness options/artifacts
 * (bit-identical across thread counts; rows carry mode "fleet").
 */
std::vector<core::RunResult>
runFleetSweep(const std::vector<FleetSweepPoint> &points,
              const core::SweepOptions &opts = {});

} // namespace halsim::fleet

#endif // HALSIM_FLEET_FLEET_HH
