/**
 * @file
 * Hierarchical statistics registry (gem5-style): named counters,
 * gauges, accumulators, quantile histograms, and sampled probes
 * organised in a dotted component tree
 * (`server.snic.core3.busy_frac`, `server.hlb.director.fwd_th_gbps`).
 *
 * Registration happens at component-construction time and may
 * allocate; the handles it returns are stable for the registry's
 * lifetime, so steady-state updates are plain inlined increments and
 * stores — nothing on the simulator hot path touches the registry
 * structure itself (DESIGN.md §10).
 *
 * Two read-side mechanisms avoid hot-path hooks entirely:
 *  - fnCounter() binds a closure that reads an existing component
 *    counter lazily at serialization time;
 *  - probe() binds a closure sampled every sampling epoch into an
 *    Accumulator + Histogram, giving occupancy/utilization
 *    distributions without touching accept().
 */

#ifndef HALSIM_OBS_REGISTRY_HH
#define HALSIM_OBS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace halsim::obs {

/** Monotonic event count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { v_ += n; }
    std::uint64_t value() const { return v_; }
    void reset() { v_ = 0; }

  private:
    std::uint64_t v_ = 0;
};

/** Last-written scalar (e.g. the director's current Fwd_Th). */
class Gauge
{
  public:
    void
    set(double v)
    {
        v_ = v;
        written_ = true;
    }

    double value() const { return v_; }
    bool written() const { return written_; }

    void
    reset()
    {
        v_ = 0.0;
        written_ = false;
    }

  private:
    double v_ = 0.0;
    bool written_ = false;
};

/**
 * The registry: a flat store of dotted paths rendered as a tree.
 *
 * Paths are dot-separated segments of [a-z0-9_]; registering an
 * invalid or duplicate path throws std::invalid_argument. All
 * serialization orders entries lexicographically by path, so output
 * is independent of registration order.
 */
class StatsRegistry
{
  public:
    /** Probe registration knobs. */
    struct ProbeOptions
    {
        /** Histogram binning for the sampled values. */
        double hist_lo = 1.0;
        double hist_hi = 1e6;
        unsigned hist_bins_per_decade = 16;
    };

    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    // --- registration (setup time; handles stay valid) ---------------

    Counter *counter(const std::string &path);
    Gauge *gauge(const std::string &path);
    Accumulator *accumulator(const std::string &path);
    Histogram *histogram(const std::string &path, double lo = 1.0,
                         double hi = 1e6,
                         unsigned bins_per_decade = 16);

    /** Counter whose value is read from the component lazily. */
    void fnCounter(const std::string &path,
                   std::function<std::uint64_t()> read);

    /** Scalar whose value is read from the component lazily at
     *  serialization time (the double-valued sibling of fnCounter;
     *  the energy ledger uses it to expose per-component joules
     *  without any hot-path hook). */
    void fnGauge(const std::string &path,
                 std::function<double()> read);

    /** Scalar sampled every epoch into a summary + histogram. */
    void probe(const std::string &path, std::function<double()> read);
    void probe(const std::string &path, std::function<double()> read,
               ProbeOptions opt);

    // --- sampling ------------------------------------------------------

    /** Read every probe once. */
    void sampleProbes();

    /** Probe samples taken so far (epochs seen). */
    std::uint64_t sampleEpochs() const { return sampleEpochs_; }

    // --- lookup (tests and views) --------------------------------------

    const Counter *findCounter(const std::string &path) const;
    const Gauge *findGauge(const std::string &path) const;
    const Accumulator *findAccumulator(const std::string &path) const;
    const Histogram *findHistogram(const std::string &path) const;

    /** Counter value by path, resolving fnCounter bindings too;
     *  returns 0 for unknown paths. */
    std::uint64_t counterValue(const std::string &path) const;

    /** Gauge value by path, resolving fnGauge bindings too; returns
     *  0.0 for unknown paths. */
    double gaugeValue(const std::string &path) const;

    /** Probe summary by path (null when @p path is not a probe). */
    const Accumulator *probeSummary(const std::string &path) const;
    const Histogram *probeHistogram(const std::string &path) const;

    std::size_t size() const { return entries_.size(); }

    // --- lifecycle -----------------------------------------------------

    /** Zero every owned stat and probe summary (fnCounter bindings
     *  read live values and are unaffected). */
    void resetAll();

    // --- serialization -------------------------------------------------

    /** Nested JSON object following the dotted tree. */
    void writeJson(std::ostream &os) const;

    /** Flat deterministic text: one sorted "path = value" per line. */
    void writeText(std::ostream &os) const;

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Accum,
        Histogram,
        FnCounter,
        FnGauge,
        Probe,
    };

    struct Entry
    {
        std::string path;
        Kind kind;
        Counter counter;
        Gauge gauge;
        Accumulator accum;
        std::unique_ptr<Histogram> hist;
        std::function<std::uint64_t()> readCounter;
        std::function<double()> readGauge;
        std::function<double()> readProbe;
    };

    Entry &addEntry(const std::string &path, Kind kind);
    const Entry *find(const std::string &path, Kind kind) const;
    void writeLeafJson(std::ostream &os, const Entry &e) const;

    std::vector<std::unique_ptr<Entry>> entries_;
    std::uint64_t sampleEpochs_ = 0;
};

/** JSON string escaping shared by every obs serializer. */
std::string jsonEscape(const std::string &s);

/** Shortest round-trippable decimal rendering of @p v — the one
 *  number format every serializer uses, so emitted JSON is stable
 *  across platforms and byte-comparable across runs. */
std::string jsonNumber(double v);

} // namespace halsim::obs

#endif // HALSIM_OBS_REGISTRY_HH
