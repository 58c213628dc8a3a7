#include "support/prefilter.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace halsim::alg {

PrefilterMatcher::PrefilterMatcher(const std::vector<std::string> &patterns)
    : patterns_(patterns), buckets_(kBuckets)
{
    for (std::uint32_t i = 0; i < patterns_.size(); ++i) {
        if (patterns_[i].size() < kWindow) {
            throw std::invalid_argument(
                "PrefilterMatcher: pattern shorter than the window");
        }
        const auto *head =
            reinterpret_cast<const std::uint8_t *>(patterns_[i].data());
        buckets_[windowHash(head)].push_back(i);
    }
    // Longest candidate first so findAll emits deterministic order.
    for (auto &b : buckets_) {
        std::sort(b.begin(), b.end());
    }
}

std::size_t
PrefilterMatcher::populatedBuckets() const
{
    std::size_t n = 0;
    for (const auto &b : buckets_)
        n += !b.empty();
    return n;
}

std::uint64_t
PrefilterMatcher::countMatches(std::span<const std::uint8_t> data) const
{
    if (data.size() < kWindow) {
        lastHitRate_ = 0.0;
        return 0;
    }
    std::uint64_t count = 0;
    std::uint64_t hits = 0;
    const std::size_t last = data.size() - kWindow;
    for (std::size_t i = 0; i <= last; ++i) {
        const auto &bucket = buckets_[windowHash(data.data() + i)];
        if (bucket.empty())
            continue;
        ++hits;
        for (std::uint32_t pi : bucket) {
            const std::string &p = patterns_[pi];
            if (p.size() <= data.size() - i &&
                std::memcmp(p.data(), data.data() + i, p.size()) == 0) {
                ++count;
            }
        }
    }
    lastHitRate_ = static_cast<double>(hits) / static_cast<double>(last + 1);
    return count;
}

std::vector<Match>
PrefilterMatcher::findAll(std::span<const std::uint8_t> data) const
{
    std::vector<Match> out;
    if (data.size() < kWindow)
        return out;
    const std::size_t last = data.size() - kWindow;
    for (std::size_t i = 0; i <= last; ++i) {
        const auto &bucket = buckets_[windowHash(data.data() + i)];
        for (std::uint32_t pi : bucket) {
            const std::string &p = patterns_[pi];
            if (p.size() <= data.size() - i &&
                std::memcmp(p.data(), data.data() + i, p.size()) == 0) {
                out.push_back(Match{pi, i + p.size()});
            }
        }
    }
    return out;
}

} // namespace halsim::alg
