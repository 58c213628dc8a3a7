/**
 * @file
 * Synthetic corpora and rulesets: determinism, size contracts, and
 * the statistical properties the REM/compression functions rely on.
 */

#include <gtest/gtest.h>

#include <set>

#include "alg/corpus.hh"
#include "alg/deflate.hh"
#include "alg/literal_matcher.hh"

using namespace halsim::alg;

TEST(Corpus, DeterministicForSeed)
{
    EXPECT_EQ(makeSilesiaLike(10000, 7), makeSilesiaLike(10000, 7));
    EXPECT_NE(makeSilesiaLike(10000, 7), makeSilesiaLike(10000, 8));
    EXPECT_EQ(makeRuleset(RulesetKind::Teakettle, 100, 3),
              makeRuleset(RulesetKind::Teakettle, 100, 3));
}

TEST(Corpus, ExactSizes)
{
    for (std::size_t n : {0u, 1u, 100u, 65536u})
        EXPECT_EQ(makeSilesiaLike(n, 1).size(), n);
    EXPECT_EQ(makeRuleset(RulesetKind::Teakettle, 2500).size(), 2500u);
    EXPECT_EQ(makeRuleset(RulesetKind::SnortLiterals, 500).size(), 500u);
}

TEST(Corpus, RulesetShapesDiffer)
{
    const auto tea = makeRuleset(RulesetKind::Teakettle, 200);
    const auto lite = makeRuleset(RulesetKind::SnortLiterals, 200);
    double tea_len = 0, lite_len = 0;
    for (const auto &r : tea)
        tea_len += static_cast<double>(r.size());
    for (const auto &r : lite)
        lite_len += static_cast<double>(r.size());
    // snort-style literals are substantially longer on average.
    EXPECT_GT(lite_len / 200.0, tea_len / 200.0 + 4.0);
}

TEST(Corpus, ScanStreamHitRateScales)
{
    const auto rules = makeRuleset(RulesetKind::SnortLiterals, 100);
    LiteralMatcher ac(rules);
    const auto low = makeScanStream(1 << 17, rules, 0.01, 4);
    const auto high = makeScanStream(1 << 17, rules, 0.5, 4);
    EXPECT_GT(ac.countMatches(high), 5 * ac.countMatches(low));
}

TEST(Corpus, CompressibilityIsStableAcrossSeeds)
{
    // The compression function's service calibration presumes the
    // corpus compresses consistently; verify the ratio varies little.
    double min_ratio = 1e9, max_ratio = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto data = makeSilesiaLike(100000, seed);
        const auto comp = deflateCompress(data, 16);
        const double ratio = static_cast<double>(data.size()) /
                             static_cast<double>(comp.size());
        min_ratio = std::min(min_ratio, ratio);
        max_ratio = std::max(max_ratio, ratio);
    }
    EXPECT_GT(min_ratio, 2.0);
    EXPECT_LT(max_ratio / min_ratio, 1.2);
}

TEST(Corpus, RulesetsAreMostlyDistinct)
{
    const auto rules = makeRuleset(RulesetKind::Teakettle, 2500);
    std::set<std::string> uniq(rules.begin(), rules.end());
    EXPECT_GT(uniq.size(), rules.size() * 9 / 10);
}
