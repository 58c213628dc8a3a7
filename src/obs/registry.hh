/**
 * @file
 * Hierarchical statistics registry (gem5-style): lazily read
 * counters and gauges, quantile histograms, and sampled probes
 * organised in a dotted component tree
 * (`server.snic.core3.busy_frac`, `server.hlb.director.fwd_th_gbps`).
 *
 * Registration happens at component-construction time and may
 * allocate; nothing on the simulator hot path touches the registry
 * structure itself (DESIGN.md §10). Components keep their own
 * counters, and the registry reads them without hot-path hooks:
 *  - fnCounter()/fnGauge() bind a closure that reads an existing
 *    component counter lazily at serialization time;
 *  - probe() binds a closure sampled every sampling epoch into an
 *    Accumulator + Histogram, giving occupancy/utilization
 *    distributions without touching accept();
 *  - histogram() hands out a stable Histogram the owner samples
 *    into directly.
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

    const Histogram *findHistogram(const std::string &path) const;

    /** fnCounter value by path; returns 0 for unknown paths. */
    std::uint64_t counterValue(const std::string &path) const;

    /** fnGauge value by path; returns 0.0 for unknown paths. */
    double gaugeValue(const std::string &path) const;

    /** Probe summary by path (null when @p path is not a probe). */
    const Accumulator *probeSummary(const std::string &path) const;
    const Histogram *probeHistogram(const std::string &path) const;

    std::size_t size() const { return entries_.size(); }

    // --- lifecycle -----------------------------------------------------

    /** Zero every histogram and probe summary (fnCounter/fnGauge
     *  bindings read live values and are unaffected). */
    void resetAll();

    // --- serialization -------------------------------------------------

    /** Nested JSON object following the dotted tree. */
    void writeJson(std::ostream &os) const;

  private:
    enum class Kind : std::uint8_t
    {
        Histogram,
        FnCounter,
        FnGauge,
        Probe,
    };

    struct Entry
    {
        std::string path;
        Kind kind;
        Accumulator accum; //!< probe summary
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
