/**
 * @file
 * Statistics primitives: counters, accumulators, quantile histograms,
 * and time-weighted averages (used for power integration).
 */

#ifndef HALSIM_SIM_STATS_HH
#define HALSIM_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace halsim {

/**
 * Running scalar summary: count, sum, min, max, mean, and variance
 * (Welford's online algorithm, numerically stable).
 */
class Accumulator
{
  public:
    void sample(double v);

    /** Discard all samples. */
    void reset() { *this = Accumulator{}; }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Sample variance (n-1 denominator); 0 with <2 samples. */
    double variance() const;
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/**
 * Geometric-binned histogram for latency quantiles.
 *
 * Bins are spaced uniformly in log space between configurable bounds;
 * with the default 64 bins/decade over [1 ns, 100 s], adjacent bin
 * edges differ by ~3.7%, bounding the relative error of any quantile
 * estimate by the same factor. Values outside the range clamp to the
 * first/last bin. quantile() interpolates within the winning bin in
 * log space.
 *
 * Latencies are recorded in ticks but any positive quantity works.
 */
class Histogram
{
  public:
    /**
     * @param lo        lower edge of the first bin (> 0)
     * @param hi        upper edge of the last bin (> lo)
     * @param bins_per_decade bin density
     */
    explicit Histogram(double lo = static_cast<double>(kNs),
                       double hi = 100.0 * static_cast<double>(kSec),
                       unsigned bins_per_decade = 64);

    void sample(double v);

    /** Remove all samples, keeping the binning. */
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minSample() const { return count_ ? min_ : 0.0; }
    double maxSample() const { return count_ ? max_ : 0.0; }

    /**
     * Estimate the @p q quantile (0 <= q <= 1). Returns 0 with no
     * samples. q=0.99 is the paper's p99 metric.
     */
    double quantile(double q) const;

    /** Convenience: the paper's headline tail metric. */
    double p99() const { return quantile(0.99); }

  private:
    std::size_t binIndex(double v) const;
    double binLowerEdge(std::size_t i) const;
    double binUpperEdge(std::size_t i) const;

    double logLo_, logHi_;
    double binsPerLog_;       //!< bins per unit of log10
    std::vector<std::uint64_t> bins_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Time-weighted average of a piecewise-constant signal, e.g. the
 * instantaneous power draw of a component. set() records a new level
 * starting at the given tick; average() integrates up to a tick.
 */
class TimeWeighted
{
  public:
    explicit TimeWeighted(double initial = 0.0) : value_(initial) {}

    /** Change the signal level at time @p now. */
    void set(double v, Tick now);

    /** Current level. */
    double value() const { return value_; }

    /** Integral of the signal over [start, now]. */
    double integral(Tick now) const;

    /** Time average over [resetTick, now]. */
    double average(Tick now) const;

    /** Restart integration at @p now, keeping the current level. */
    void resetAt(Tick now);

  private:
    double value_ = 0.0;
    double integral_ = 0.0;
    Tick lastChange_ = 0;
    Tick start_ = 0;
};

/**
 * Windowed byte-rate meter: feeds of (bytes) against the clock,
 * reporting achieved Gbps over the observation window.
 */
class RateMeter
{
  public:
    void
    add(std::uint64_t bytes)
    {
        bytes_ += bytes;
        ++frames_;
    }

    void
    resetAt(Tick now)
    {
        bytes_ = 0;
        frames_ = 0;
        start_ = now;
    }

    std::uint64_t bytes() const { return bytes_; }
    std::uint64_t frames() const { return frames_; }
    Tick start() const { return start_; }

    /** Achieved Gbps between the last reset and @p now. */
    double
    gbpsAt(Tick now) const
    {
        return now > start_ ? gbps(bytes_, now - start_) : 0.0;
    }

  private:
    std::uint64_t bytes_ = 0;
    std::uint64_t frames_ = 0;
    Tick start_ = 0;
};

} // namespace halsim

#endif // HALSIM_SIM_STATS_HH
