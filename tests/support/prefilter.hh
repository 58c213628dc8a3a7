/**
 * @file
 * Prefilter-and-verify multi-literal matcher: the test oracle for the
 * REM engine.
 *
 * Hyperscan executes literal rulesets with an FDR/Teddy-style
 * prefilter: a hash over a short window of text selects candidate
 * patterns, which are then verified exactly. This is the engine shape
 * the paper's *host* runs (Table I / §III-A). Built only into the
 * tests, it cross-checks alg::LiteralMatcher with an independently
 * built engine: a 4-byte hash window looked up at every position,
 * per-bucket pattern lists and no pair filter.
 *
 * Patterns must be at least kWindow (4) bytes long, which both
 * paper rulesets satisfy.
 */

#ifndef HALSIM_TESTS_SUPPORT_PREFILTER_HH
#define HALSIM_TESTS_SUPPORT_PREFILTER_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "alg/literal_matcher.hh"   // for Match

namespace halsim::alg {

/**
 * Hash-bucketed literal prefilter with exact verification.
 */
class PrefilterMatcher
{
  public:
    /** Prefilter window: the first kWindow bytes of each pattern. */
    static constexpr std::size_t kWindow = 4;

    /**
     * @param patterns literal patterns, each >= kWindow bytes
     * @throws std::invalid_argument on a too-short pattern
     */
    explicit PrefilterMatcher(const std::vector<std::string> &patterns);

    std::size_t patternCount() const { return patterns_.size(); }

    /** Number of hash buckets actually populated (density probe). */
    std::size_t populatedBuckets() const;

    /**
     * Count all occurrences of all patterns (same match semantics as
     * LiteralMatcher::countMatches: overlaps and nested matches count).
     */
    std::uint64_t countMatches(std::span<const std::uint8_t> data) const;

    /** All matches as (pattern, end-offset) pairs. */
    std::vector<Match> findAll(std::span<const std::uint8_t> data) const;

    /** Fraction of scanned positions whose bucket was non-empty in
     *  the last scan — the verify load the prefilter admits. */
    double lastHitRate() const { return lastHitRate_; }

  private:
    static std::uint32_t
    windowHash(const std::uint8_t *p)
    {
        // 4 bytes -> bucket index; multiplicative mix.
        std::uint32_t h = (std::uint32_t{p[0]} << 24) |
                          (std::uint32_t{p[1]} << 16) |
                          (std::uint32_t{p[2]} << 8) | p[3];
        return (h * 2654435761u) >> (32 - kBucketBits);
    }

    static constexpr unsigned kBucketBits = 14;
    static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

    std::vector<std::string> patterns_;
    /** buckets_[h] -> indices of candidate patterns. */
    std::vector<std::vector<std::uint32_t>> buckets_;
    mutable double lastHitRate_ = 0.0;
};

} // namespace halsim::alg

#endif // HALSIM_TESTS_SUPPORT_PREFILTER_HH
