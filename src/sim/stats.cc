#include "sim/stats.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace halsim {

void
Accumulator::sample(double v)
{
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (v - mean_);
}

double
Accumulator::variance() const
{
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, unsigned bins_per_decade)
{
    assert(lo > 0.0 && hi > lo && bins_per_decade > 0);
    logLo_ = std::log10(lo);
    logHi_ = std::log10(hi);
    binsPerLog_ = static_cast<double>(bins_per_decade);
    const auto nbins = static_cast<std::size_t>(
        std::ceil((logHi_ - logLo_) * binsPerLog_));
    bins_.assign(std::max<std::size_t>(nbins, 1), 0);
}

std::size_t
Histogram::binIndex(double v) const
{
    if (v <= 0.0)
        return 0;
    const double pos = (std::log10(v) - logLo_) * binsPerLog_;
    if (pos < 0.0)
        return 0;
    const auto i = static_cast<std::size_t>(pos);
    return std::min(i, bins_.size() - 1);
}

double
Histogram::binLowerEdge(std::size_t i) const
{
    return std::pow(10.0, logLo_ + static_cast<double>(i) / binsPerLog_);
}

double
Histogram::binUpperEdge(std::size_t i) const
{
    return std::pow(10.0, logLo_ + static_cast<double>(i + 1) / binsPerLog_);
}

void
Histogram::sample(double v)
{
    ++bins_[binIndex(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
}

void
Histogram::reset()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = max_ = 0.0;
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i] == 0)
            continue;
        const double before = static_cast<double>(running);
        running += bins_[i];
        if (static_cast<double>(running) >= target) {
            // Interpolate within the bin in log space, clamped to the
            // observed extremes so tiny sample counts stay sane.
            const double frac =
                bins_[i] ? (target - before) / static_cast<double>(bins_[i])
                         : 0.0;
            const double lo = std::log10(binLowerEdge(i));
            const double hi = std::log10(binUpperEdge(i));
            const double v = std::pow(10.0, lo + (hi - lo) *
                                                std::clamp(frac, 0.0, 1.0));
            return std::clamp(v, min_, max_);
        }
    }
    return max_;
}

void
TimeWeighted::set(double v, Tick now)
{
    assert(now >= lastChange_);
    integral_ += value_ * static_cast<double>(now - lastChange_);
    lastChange_ = now;
    value_ = v;
}

double
TimeWeighted::integral(Tick now) const
{
    assert(now >= lastChange_);
    return integral_ + value_ * static_cast<double>(now - lastChange_);
}

double
TimeWeighted::average(Tick now) const
{
    if (now <= start_)
        return value_;
    return integral(now) / static_cast<double>(now - start_);
}

void
TimeWeighted::resetAt(Tick now)
{
    assert(now >= lastChange_);
    integral_ = 0.0;
    lastChange_ = now;
    start_ = now;
}

} // namespace halsim
