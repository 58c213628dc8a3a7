/**
 * @file
 * The benchmark's four workloads and the code that runs one of them
 * once through the simulator's public API, reads its per-layer counts
 * from public accessors, and checks its outputs.
 *
 * Each run builds a fresh EventQueue and system on the calling thread
 * with the monolithic engine and default engine settings: the
 * benchmark never sets run_threads, batching or pooling.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/server.hh"
#include "fleet/fleet.hh"
#include "net/traffic.hh"
#include "sampled_rate.hh"

namespace perfbench {

enum class SystemKind { Server, Fleet };

struct Workload
{
    std::string name;
    SystemKind kind = SystemKind::Server;
    halsim::core::ServerConfig server;  //!< used when kind == Server
    halsim::fleet::FleetConfig fleet;   //!< used when kind == Fleet
    std::function<std::unique_ptr<halsim::net::RateProcess>()> makeRate;
    halsim::Tick warmup = 0;
    halsim::Tick measure = 0;

    std::size_t frameBytes() const;
};

/** Names of every workload, in the order `all` runs them. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name with @p seed as its ServerConfig/FleetConfig
 * seed. @p scale shortens warmup and measurement window (self-tests
 * only; the benchmark runs at 1). Throws std::invalid_argument for an
 * unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      double scale = 1.0);

/** Observability settings for one run of a workload. */
enum class ObsVariant
{
    AsConfigured,  //!< the workload's own obs settings (measured runs)
    Off,           //!< stats, tracing, spans and flight recorder off
    StatsOn,       //!< the workload's settings plus the stats registry
};

/** One output check: a name and whether it held. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** What one run produced, read through public accessors. */
struct RunOutcome
{
    halsim::core::RunResult result;
    double run_s = 0.0;                 //!< host seconds inside run()
    std::uint64_t frames = 0;           //!< client frames (fleet: sends)
    std::uint64_t events = 0;           //!< events executed
    std::uint64_t ring_drops = 0;       //!< processor / backend rings
    std::uint32_t max_ring_occupancy = 0;  //!< over generator epochs
    std::uint64_t lbp_adjustments = 0;
    std::uint64_t coherence_accesses = 0;
    std::uint64_t coherence_remote = 0;
    std::uint64_t obs_records = 0;      //!< tracer + span + recorder
    std::uint64_t requests = 0;         //!< fleet: unique requests
    std::uint64_t retries = 0;          //!< fleet: retransmissions
    std::vector<QueueSample> samples;   //!< when run sampled
    std::vector<Check> checks;
};

struct RunOptions
{
    ObsVariant obs = ObsVariant::AsConfigured;
    /** Wrap the rate process in SampledRate and keep its samples. */
    bool sample = false;
    /** Called on every sample (after it is stored) when sampling. */
    std::function<void(const QueueSample &)> onSample;
};

/** Run @p w once on a fresh system. */
RunOutcome runOnce(const Workload &w, const RunOptions &opt = {});

/**
 * @p w with its warmup folded into the measurement window. Processor
 * drop counters restart at the warmup boundary, so the server packet
 * ledger is checked on this variant, where they cover every frame.
 */
Workload ledgerVariant(const Workload &w);

/** Host seconds to construct @p w's system (queue included), once. */
double setupSecondsOnce(const Workload &w);

/** The RunResult as its JSON serialization. */
std::string resultJson(const halsim::core::RunResult &r);

/** resultJson() with the obs-only fields (trace spans, flight
 *  recorder) zeroed: what obs must not change. */
std::string simulationJson(const halsim::core::RunResult &r);

/** 64-bit FNV-1a of @p s, as 16 hex digits. */
std::string digest(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
