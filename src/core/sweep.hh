/**
 * @file
 * Parallel sweep harness: run independent (ServerConfig, rate)
 * operating points across cores.
 *
 * Every paper figure is a sweep of independent points; each point
 * owns a private EventQueue and ServerSystem, so points parallelize
 * perfectly. Results are returned in input order and are bit-identical
 * to a serial run regardless of thread count (test_determinism holds
 * this property). The harness also standardizes the bench CLI
 * (`--threads N`, `--json PATH`) and writes the machine-readable
 * BENCH_*.json perf artifacts CI tracks.
 */

#ifndef HALSIM_CORE_SWEEP_HH
#define HALSIM_CORE_SWEEP_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/server.hh"
#include "net/traffic.hh"

namespace halsim::core {

/** One operating point of a sweep. */
struct SweepPoint
{
    ServerConfig cfg;
    /** Constant offered rate; ignored when @ref trace is set. */
    double rate_gbps = 0.0;
    /** Datacenter-trace workload instead of a constant rate. */
    std::optional<net::TraceKind> trace;
    /** Custom rate-process factory (diurnal/burst workloads); takes
     *  precedence over both @ref trace and @ref rate_gbps. A factory
     *  (not an instance) so the point list stays copyable and each
     *  run gets a fresh process. */
    std::function<std::unique_ptr<net::RateProcess>()> make_rate = nullptr;
    Tick warmup = 20 * kMs;
    Tick measure = 100 * kMs;
    Tick resample = 1 * kMs;
    /** Row label carried into reports and JSON. */
    std::string label;
};

/** Harness knobs, usually parsed from the bench command line. */
struct SweepOptions
{
    /** Worker threads; 0 means all hardware threads. */
    unsigned threads = 1;
    /** When non-empty, write the results artifact here. */
    std::string json_path;
    /** When non-empty, enable stats and write the per-point stats
     *  trees here ({"bench","points":[{"label","stats":{...}}]}). */
    std::string stats_path;
    /** When non-empty, enable packet-stage and request-span tracing
     *  and write the trace ring as one Chrome trace_event JSON here
     *  (one pid per sweep point). */
    std::string trace_path;
    /** When non-empty, enable the flight recorder and write its
     *  dump artifact here ({"bench","points":[{"label",
     *  "flightrec":{...}}]}). */
    std::string flightrec_path;
    /** Armed flight-recorder trigger mask from `--fr-trigger`
     *  (obs::frTriggerBit bits); 0 arms every trigger whenever the
     *  flight recorder is forced on by @ref flightrec_path. */
    std::uint32_t fr_armed = 0;
    /** When > 0, arm the SLO monitor at this p99 target for every
     *  point that does not already set its own target. */
    double slo_p99_us = 0.0;
    /** `--governor on|off`: force the core-scaling governor on (or
     *  off) for every point; unset leaves each point's config alone. */
    std::optional<bool> governor;
    /** Bench name recorded in the artifact. */
    std::string bench_name = "sweep";
};

/**
 * The one place bench/CLI flags are declared (DESIGN.md §8, "Parallel
 * sweep harness"): each binary registers its flags once — name,
 * metavar, help line, parse callback — and gets uniform `--help` text
 * and the strict malformed-value contract (diagnostic + exit 2) for
 * free. registerSweepFlags() adds the shared sweep set, so a flag like
 * `--governor` registers in one line and appears in every binary's help.
 */
class ArgRegistrar
{
  public:
    explicit ArgRegistrar(std::string prog, std::string description = "")
        : prog_(std::move(prog)), description_(std::move(description))
    {
    }

    /** Option taking one operand: `--name VALUE`. @p parse returns an
     *  error message, or empty on success. */
    void value(std::string name, std::string metavar, std::string help,
               std::function<std::string(const std::string &)> parse);

    /** Bare boolean option: `--name`. */
    void flag(std::string name, std::string help,
              std::function<void()> set);

    /**
     * Parse @p argv. `--help`/`-h` prints the registered usage and
     * exits 0; an unknown option, a missing operand, or a parse error
     * prints a diagnostic plus usage and exits 2 (the strict contract
     * every bench already relied on).
     */
    void parse(int argc, char **argv) const;

    void printUsage(std::FILE *out) const;

  private:
    struct Opt
    {
        std::string name;
        std::string metavar;   //!< empty for bare flags
        std::string help;
        std::function<std::string(const std::string &)> parse;
        std::function<void()> set;
    };

    std::string prog_;
    std::string description_;
    std::vector<Opt> opts_;
};

/**
 * Strict numeric operand for ArgRegistrar callbacks. The whole of
 * @p text must be one number; empty text, trailing junk, NaN and
 * ±inf are rejected (std::nullopt), so callers never cast a value
 * that does not fit.
 *
 *  - Integral T with the default @p unit of 1 reads an exact decimal
 *    integer: fractions ("1.5") and values outside T ("-1" for an
 *    unsigned T, "4294967296" for a 32-bit one) are rejected.
 *  - Integral T with a larger @p unit reads a decimal quantity in
 *    units of @p unit (milliseconds as kMs ticks, say), rounds it to
 *    the nearest whole T, and rejects results outside T.
 *  - Floating T reads any finite value, scaled by @p unit.
 */
template <typename T>
std::optional<T>
parseNumberArg(std::string_view text, T unit = 1)
{
    const char *const first = text.data();
    const char *const last = first + text.size();
    if constexpr (std::is_integral_v<T>) {
        if (unit == 1) {
            T v{};
            const auto [end, ec] = std::from_chars(first, last, v);
            if (ec != std::errc() || end != last)
                return std::nullopt;
            return v;
        }
    }
    double q = 0.0;
    const auto [end, ec] = std::from_chars(first, last, q);
    if (ec != std::errc() || end != last)
        return std::nullopt;
    const double v = q * static_cast<double>(unit);
    if (!std::isfinite(v))
        return std::nullopt;
    if constexpr (std::is_integral_v<T>) {
        // double(max) rounds up to 2^64 / 2^63 for 64-bit T, so the
        // half-open bound below is exact for every integral T.
        const double r = std::nearbyint(v);
        if (!(r >= static_cast<double>(std::numeric_limits<T>::min()) &&
              r < static_cast<double>(std::numeric_limits<T>::max()) +
                      1.0))
            return std::nullopt;
        return static_cast<T>(r);
    } else {
        return static_cast<T>(v);
    }
}

/**
 * Parse a sweep worker-thread count as accepted by `--threads`.
 * Grammar: a positive decimal integer (at most @ref kMaxThreads), or
 * the word `all` for every hardware thread.
 *
 * @return the count (0 is the internal "all hardware threads"
 *         sentinel used by SweepOptions), or std::nullopt with
 *         @p error filled in. Rejected: empty, non-numeric, trailing
 *         junk, negative, explicit 0 (spell it `all`), and
 *         implausibly large values.
 */
std::optional<unsigned> parseThreadsValue(std::string_view text,
                                          std::string *error);

/** Upper bound accepted by parseThreadsValue (sanity, not a target). */
inline constexpr unsigned kMaxThreads = 4096;

/**
 * Register the shared sweep/CLI flag set against @p opts:
 * `--threads N|all`, `--json PATH`, `--stats-out PATH`,
 * `--trace PATH`, `--flightrec PATH`,
 * `--fr-trigger LIST`, `--slo-p99 US` and `--governor on|off`.
 */
void registerSweepFlags(ArgRegistrar &reg, SweepOptions &opts);

/**
 * Just the power-policy subset (`--governor on|off`) for binaries
 * that are not sweeps (halsim_cli). Included in
 * registerSweepFlags(); declared separately so the flags are defined
 * in exactly one place either way.
 */
void registerPowerFlags(ArgRegistrar &reg, SweepOptions &opts);

/** Apply parsed power flags to a config (no-op for unset options). */
void applyPowerFlags(const SweepOptions &opts, ServerConfig &cfg);

/**
 * Force on the observability each requested artifact needs
 * (`--stats-out` → stats, `--trace` → trace + spans, `--flightrec` →
 * flight recorder with the `--fr-trigger` mask, or every trigger when
 * none is given and the point arms none) and arm `--slo-p99` on a
 * point without its own target. Shared by the server and fleet
 * sweeps.
 */
void applyObsFlags(const SweepOptions &opts, obs::ObsConfig &obs,
                   obs::SloConfig &slo);

/**
 * The one writer of sweep artifacts. Each point's documents are
 * captured after its run: its results row (label, mode, function,
 * rate_gbps and every RunResult field) and, when requested, its stats
 * tree, trace events and flight-recorder dump. save() writes them in
 * input order, so artifacts are byte-identical for any worker count.
 * capture() for distinct points may run concurrently.
 *
 * Documents, each under the path its SweepOptions field names:
 *  - results:   {"bench","points":[{row}, ...]}
 *  - stats:     {"bench","points":[{"label","stats":{tree}}, ...]}
 *  - trace:     {"traceEvents":[...]}, one pid per point, led by a
 *               run_metadata event (bench, preset, seed, build tag)
 *  - flightrec: {"bench","points":[{"label","flightrec":{...}}]}
 */
class SweepArtifacts
{
  public:
    /** The trace document's run_metadata carries @p preset and
     *  @p seed. */
    SweepArtifacts(const SweepOptions &opts, std::size_t points,
                   const std::string &preset, std::uint64_t seed);

    /** Capture point @p i: its results row from @p label, @p mode,
     *  @p function, @p rate_gbps and @p r, and its requested obs
     *  documents from @p obs (null when the point ran with obs off). */
    void capture(std::size_t i, const std::string &label,
                 std::string_view mode, std::string_view function,
                 double rate_gbps, const RunResult &r,
                 const obs::Observability *obs);

    /** Write every requested document. One that cannot be written
     *  prints `error: cannot write '<path>'` and exits 1, so a bench
     *  never reports success without its artifact. */
    void save() const;

  private:
    const SweepOptions &opts_;
    std::vector<std::string> rows_;
    std::vector<std::string> stats_;
    /** [0] is the run_metadata event, [i + 1] point i's events. */
    std::vector<std::string> traces_;
    std::vector<std::string> frs_;
};

/**
 * Run every point (possibly in parallel) and return results in input
 * order. Writes the JSON artifacts named by opts.json_path /
 * opts.stats_path / opts.trace_path / opts.flightrec_path; all but
 * the first force the observability they need on for every point
 * (applyObsFlags). Artifacts are byte-deterministic
 * for a given point list (no wall-clock content).
 */
std::vector<RunResult> runSweep(const std::vector<SweepPoint> &points,
                                const SweepOptions &opts = {});

/**
 * The one bench argv parser: registerSweepFlags(), `--quick` when
 * @p quick is given (it names the bench `<bench_name>_quick`) and
 * whatever @p extra registers. Malformed values, e.g. a zero thread
 * count or a bad on|off, and unknown arguments print a diagnostic
 * and exit 2; `--help` exits 0.
 */
SweepOptions
parseSweepArgs(int argc, char **argv, std::string bench_name,
               bool *quick = nullptr, const std::string &description = "",
               const std::function<void(ArgRegistrar &)> &extra = {});

} // namespace halsim::core

#endif // HALSIM_CORE_SWEEP_HH
