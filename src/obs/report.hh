/**
 * @file
 * SweepReport: the single serialization point for bench artifacts.
 *
 * A sweep produces one row per point; each row arrives as a
 * pre-rendered JSON object (built from RunResult::toJson() plus the
 * point's labeling fields), so the report stays generic and src/obs
 * keeps no dependency on src/core. Three documents can be emitted:
 *
 *  - results:   {"bench","threads","points":[{...}, ...]}
 *  - stats:     {"bench","points":[{"label","stats":{tree}}, ...]}
 *  - trace:     {"traceEvents":[...]} with one pid per sweep point
 *  - flightrec: {"bench","points":[{"label","flightrec":{...}}]}
 *
 * Trace documents can carry one leading "run_metadata" metadata event
 * (config preset, seed, build tag) so an exported trace identifies
 * the run that produced it. The build tag is a fixed constant — never
 * derived from git or the clock — keeping artifacts byte-deterministic.
 */

#ifndef HALSIM_OBS_REPORT_HH
#define HALSIM_OBS_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace halsim::obs {

/** Build tag stamped into trace metadata. A constant by design:
 *  artifacts must be byte-identical across checkouts and rebuilds,
 *  so no git-describe, hostnames, or timestamps. */
inline constexpr const char *kBuildTag = "halsim";

class SweepReport
{
  public:
    SweepReport(std::string bench_name, unsigned threads)
        : bench_(std::move(bench_name)), threads_(threads)
    {}

    /** Append one point row: a complete JSON object string. */
    void addRow(std::string json_object)
    {
        rows_.push_back(std::move(json_object));
    }

    /** Attach a point's stats tree (a JSON object string). */
    void
    addStats(std::string label, std::string stats_json)
    {
        statsLabels_.push_back(std::move(label));
        stats_.push_back(std::move(stats_json));
    }

    /** Attach a point's Chrome events (comma-joined objects, no
     *  surrounding brackets; may be empty). */
    void addChromeEvents(std::string chrome_events)
    {
        traces_.push_back(std::move(chrome_events));
    }

    /** Attach a point's flight-recorder document (a JSON object
     *  string from FlightRecorder::writeJson). */
    void
    addFlightRec(std::string label, std::string fr_json)
    {
        frLabels_.push_back(std::move(label));
        flightrecs_.push_back(std::move(fr_json));
    }

    /** Stamp trace documents with a leading run_metadata event
     *  (preset, seed, kBuildTag). */
    void
    setTraceMetadata(std::string preset, std::uint64_t seed)
    {
        metaPreset_ = std::move(preset);
        metaSeed_ = seed;
        hasMeta_ = true;
    }

    std::size_t rowCount() const { return rows_.size(); }

    void writeResultsJson(std::ostream &os) const;
    void writeStatsJson(std::ostream &os) const;
    void writeTraceJson(std::ostream &os) const;
    void writeFlightRecJson(std::ostream &os) const;

    /** File variants; return false (and print to stderr) on I/O
     *  failure. */
    bool saveResultsJson(const std::string &path) const;
    bool saveStatsJson(const std::string &path) const;
    bool saveTraceJson(const std::string &path) const;
    bool saveFlightRecJson(const std::string &path) const;

  private:
    std::string bench_;
    unsigned threads_;
    std::vector<std::string> rows_;
    std::vector<std::string> statsLabels_;
    std::vector<std::string> stats_;
    std::vector<std::string> traces_;
    std::vector<std::string> frLabels_;
    std::vector<std::string> flightrecs_;
    std::string metaPreset_;
    std::uint64_t metaSeed_ = 0;
    bool hasMeta_ = false;
};

} // namespace halsim::obs

#endif // HALSIM_OBS_REPORT_HH
