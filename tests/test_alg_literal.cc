/**
 * @file
 * LiteralMatcher: matches vs a naive reference scanner over random
 * texts and the REM rulesets, overlap handling, the key and table
 * edge cases, and the AVX2 and portable pair filters against each
 * other. The AhoCorasick and AhoRulesetSweep suites keep the name of
 * the automaton they were written for, so their test ids stay stable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "alg/corpus.hh"
#include "alg/literal_matcher.hh"
#include "sim/rng.hh"

using halsim::Rng;
using halsim::alg::LiteralMatcher;
using halsim::alg::PairFilter;
using halsim::alg::Match;

namespace {

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

/** Naive O(n*m) reference matcher. */
std::vector<Match>
naiveFindAll(const std::vector<std::string> &patterns,
             const std::vector<std::uint8_t> &text)
{
    std::vector<Match> out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        for (std::uint32_t pi = 0; pi < patterns.size(); ++pi) {
            const std::string &p = patterns[pi];
            if (p.size() > i + 1)
                continue;
            const std::size_t start = i + 1 - p.size();
            // Compare as bytes: char may be signed.
            if (std::equal(p.begin(), p.end(), text.begin() + start,
                           [](char a, std::uint8_t b) {
                               return static_cast<std::uint8_t>(a) == b;
                           }))
                out.push_back(Match{pi, i + 1});
        }
    }
    return out;
}

void
sortMatches(std::vector<Match> &m)
{
    std::sort(m.begin(), m.end(), [](const Match &a, const Match &b) {
        return a.end != b.end ? a.end < b.end : a.pattern < b.pattern;
    });
}

/**
 * countMatches and findAll against naiveFindAll on every prefix of
 * @p text up to max(4 * maxlen + 8, 72) bytes, which ends the pair
 * filter's partial 16- and 32-byte blocks at every offset, and on the
 * whole text. Each prefix is copied into a heap buffer of exactly its
 * size, so a sanitizer build catches any read past the end.
 */
void
expectAgreesWithNaive(const std::vector<std::string> &patterns,
                      const std::vector<std::uint8_t> &text)
{
    const LiteralMatcher matcher(patterns);
    std::size_t maxlen = 0;
    for (const auto &p : patterns)
        maxlen = std::max(maxlen, p.size());
    const auto all = naiveFindAll(patterns, text);

    std::vector<std::size_t> lengths;
    const std::size_t upTo = std::max<std::size_t>(4 * maxlen + 8, 72);
    for (std::size_t n = 0; n <= upTo && n < text.size(); ++n)
        lengths.push_back(n);
    lengths.push_back(text.size());
    for (std::size_t n : lengths) {
        const std::vector<std::uint8_t> prefix(text.begin(),
                                               text.begin() + n);
        std::vector<Match> want;
        for (const Match &m : all)
            if (m.end <= n)
                want.push_back(m);
        auto got = matcher.findAll(prefix);
        sortMatches(got);
        ASSERT_EQ(got, want) << "length " << n;
        ASSERT_EQ(matcher.countMatches(prefix), want.size())
            << "length " << n;
    }
}

} // namespace

TEST(AhoCorasick, SinglePattern)
{
    LiteralMatcher matcher({"abc"});
    const auto text = bytesOf("xxabcxxabc");
    EXPECT_EQ(matcher.countMatches(text), 2u);
}

TEST(AhoCorasick, OverlappingPatterns)
{
    // "aba" in "ababa" matches at ends 3 and 5.
    LiteralMatcher matcher({"aba"});
    EXPECT_EQ(matcher.countMatches(bytesOf("ababa")), 2u);
}

TEST(AhoCorasick, SuffixPatternsBothReported)
{
    // "she" contains "he": both must fire at the same end position.
    LiteralMatcher matcher({"she", "he", "hers"});
    auto matches = matcher.findAll(bytesOf("ushers"));
    sortMatches(matches);
    ASSERT_EQ(matches.size(), 3u);
    EXPECT_EQ(matches[0].end, 4u);   // "she"
    EXPECT_EQ(matches[1].end, 4u);   // "he"
    EXPECT_EQ(matches[2].end, 6u);   // "hers"
}

TEST(AhoCorasick, PatternIsPrefixOfAnother)
{
    LiteralMatcher matcher({"ab", "abcd"});
    EXPECT_EQ(matcher.countMatches(bytesOf("abcd")), 2u);
}

TEST(AhoCorasick, NoMatchesInCleanText)
{
    LiteralMatcher matcher({"needle"});
    const auto text = halsim::alg::makeSilesiaLike(10000, 1);
    EXPECT_EQ(matcher.countMatches(text),
              naiveFindAll({"needle"}, text).size());
}

TEST(AhoCorasick, MatchesAgainstNaiveRandomized)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        // Small alphabet maximizes overlaps and failure transitions.
        std::vector<std::string> patterns;
        const std::size_t npat = 1 + rng.uniformInt(8);
        for (std::size_t i = 0; i < npat; ++i) {
            std::string p;
            const std::size_t len = 1 + rng.uniformInt(5);
            for (std::size_t j = 0; j < len; ++j)
                p.push_back(static_cast<char>('a' + rng.uniformInt(3)));
            patterns.push_back(std::move(p));
        }
        std::vector<std::uint8_t> text(500);
        for (auto &c : text)
            c = static_cast<std::uint8_t>('a' + rng.uniformInt(3));

        SCOPED_TRACE("small alphabet, trial " + std::to_string(trial));
        expectAgreesWithNaive(patterns, text);
    }

    for (int trial = 0; trial < 20; ++trial) {
        // Full byte alphabet; trial 0 uses all 256 values, so no byte
        // falls in the "other" class.
        std::vector<std::string> patterns;
        if (trial == 0) {
            for (int b = 0; b < 256; b += 16) {
                std::string p;
                for (int j = 0; j < 16; ++j)
                    p.push_back(static_cast<char>(b + j));
                patterns.push_back(std::move(p));
            }
        }
        const std::size_t npat = 1 + rng.uniformInt(12);
        for (std::size_t i = 0; i < npat; ++i) {
            std::string p;
            const std::size_t len = 1 + rng.uniformInt(20);
            for (std::size_t j = 0; j < len; ++j)
                p.push_back(static_cast<char>(rng.uniformInt(256)));
            patterns.push_back(std::move(p));
        }
        // Nested and duplicate patterns: substrings and exact copies
        // of earlier ones.
        for (std::size_t i = 0; i < npat; ++i) {
            const std::string p = patterns[rng.uniformInt(patterns.size())];
            const std::size_t from = rng.uniformInt(p.size());
            const std::size_t len = 1 + rng.uniformInt(p.size() - from);
            patterns.push_back(rng.chance(0.25) ? p : p.substr(from, len));
        }
        // Random bytes with planted, often overlapping, occurrences.
        std::vector<std::uint8_t> text(1459);
        for (auto &c : text)
            c = static_cast<std::uint8_t>(rng.uniformInt(256));
        for (int k = 0; k < 60; ++k) {
            const std::string &p = patterns[rng.uniformInt(patterns.size())];
            const std::size_t at = rng.uniformInt(text.size() - p.size());
            std::copy(p.begin(), p.end(), text.begin() + at);
        }

        SCOPED_TRACE("full alphabet, trial " + std::to_string(trial));
        expectAgreesWithNaive(patterns, text);
    }

    for (int trial = 0; trial < 40; ++trial) {
        // The pair filter: first bytes from F and second bytes from S,
        // each of 1..4 bytes (or 6, over the compare budget, on one
        // side), rest from a small alphabet that shares bytes with
        // both. Odd trials add a 2-byte pattern; every fifth a 1-byte
        // one, which must turn the filter off.
        const auto pickSet = [&](std::size_t size) {
            std::string set;
            while (set.size() < size) {
                const char c = static_cast<char>(rng.uniformInt(256));
                if (set.find(c) == std::string::npos)
                    set.push_back(c);
            }
            return set;
        };
        const bool wideF = trial % 8 == 3, wideS = trial % 8 == 6;
        const std::string F = pickSet(wideF ? 6 : 1 + rng.uniformInt(4));
        const std::string S = pickSet(wideS ? 6 : 1 + rng.uniformInt(4));
        const std::string rest = F + S + pickSet(3);
        const auto from = [&](const std::string &set) {
            return set[rng.uniformInt(set.size())];
        };
        std::vector<std::string> patterns;
        const std::size_t npat = 1 + rng.uniformInt(6);
        for (std::size_t i = 0; i < npat; ++i) {
            std::string p{from(F), from(S)};
            const std::size_t len = rng.uniformInt(5);
            for (std::size_t j = 0; j < len; ++j)
                p.push_back(from(rest));
            patterns.push_back(std::move(p));
        }
        if (trial % 2 == 1)
            patterns.push_back({from(F), from(S)});
        if (trial % 5 == 4)
            patterns.push_back({from(rest)});

        // Random bytes, then near misses: F x S pairs that begin no
        // pattern, and patterns cut short by their last byte.
        std::vector<std::uint8_t> text(1459);
        for (auto &c : text)
            c = static_cast<std::uint8_t>(rng.chance(0.5)
                                              ? rng.uniformInt(256)
                                              : from(rest));
        const auto plant = [&](const std::string &p, std::size_t at) {
            std::copy(p.begin(), p.end(), text.begin() + at);
        };
        for (int k = 0; k < 120; ++k) {
            const std::string &p = patterns[rng.uniformInt(npat)];
            const std::size_t at = rng.uniformInt(text.size() - p.size());
            switch (k % 3) {
              case 0: plant({from(F), from(S)}, at); break;
              case 1: plant(p.substr(0, p.size() - 1), at); break;
              default: plant(p, at); break;
            }
        }
        // Candidates at offset 1, at n - 1 and around the first block
        // edges (pairs at j = 15..18 and 31..34).
        plant(patterns[0].substr(0, 2), 0);
        plant(patterns[0].substr(0, 2), text.size() - 2);
        for (std::size_t j : {15u, 17u, 32u, 34u})
            plant(patterns[rng.uniformInt(patterns.size())].substr(0, 2),
                  j - 1);

        SCOPED_TRACE("pair filter, trial " + std::to_string(trial));
        expectAgreesWithNaive(patterns, text);
    }
}

TEST(AhoCorasick, BinaryPatterns)
{
    // Full byte alphabet including NUL.
    std::vector<std::string> patterns = {std::string("\x00\x01", 2),
                                         std::string("\xff\xfe\xfd", 3)};
    LiteralMatcher matcher(patterns);
    std::vector<std::uint8_t> text = {0xff, 0xfe, 0xfd, 0x00,
                                      0x01, 0x00, 0x01};
    EXPECT_EQ(matcher.countMatches(text), 3u);
}

TEST(AhoCorasick, TeakettleRulesetBuilds)
{
    const auto rules =
        halsim::alg::makeRuleset(halsim::alg::RulesetKind::Teakettle, 2500);
    ASSERT_EQ(rules.size(), 2500u);
    LiteralMatcher matcher(rules);
    for (const auto &rule : rules)
        ASSERT_GE(matcher.countMatches(bytesOf(rule)), 1u) << rule;

    // A scan stream with planted hits must fire; hit-free must be rare.
    const auto hot = halsim::alg::makeScanStream(50000, rules, 0.5, 1);
    EXPECT_GT(matcher.countMatches(hot), 0u);
}

TEST(AhoCorasick, SnortRulesetSelective)
{
    const auto rules = halsim::alg::makeRuleset(
        halsim::alg::RulesetKind::SnortLiterals, 500);
    LiteralMatcher matcher(rules);
    const auto clean = halsim::alg::makeScanStream(50000, rules, 0.0, 2);
    const auto dirty = halsim::alg::makeScanStream(50000, rules, 0.3, 3);
    EXPECT_EQ(matcher.countMatches(clean), 0u)
        << "snort-style tokens should not fire on plain text";
    EXPECT_GT(matcher.countMatches(dirty), 50u);
}

TEST(LiteralMatcher, PatternsSharingAKeyDifferInLength)
{
    // m = 8: all four share the key "abcdefgh"; at one start the
    // 8-, 10- and 12-byte ones match and the 10-byte "abcdefghXY"
    // does not.
    const std::vector<std::string> patterns = {
        "abcdefghijkl", "abcdefgh", "abcdefghXY", "abcdefghij"};
    const LiteralMatcher matcher(patterns);
    auto got = matcher.findAll(bytesOf("abcdefghijkl"));
    const std::vector<Match> want = {{1, 8}, {3, 10}, {0, 12}};
    EXPECT_EQ(got, want);
    expectAgreesWithNaive(patterns,
                          bytesOf("xabcdefghijklabcdefghXYabcdefghijabcdefgh"));
}

TEST(LiteralMatcher, DuplicatePatternsCountOnceEach)
{
    const std::vector<std::string> patterns = {"needle", "need", "needle"};
    const LiteralMatcher matcher(patterns);
    EXPECT_EQ(matcher.countMatches(bytesOf("a needle")), 3u);
    const std::vector<Match> want = {{1, 6}, {0, 8}, {2, 8}};
    EXPECT_EQ(matcher.findAll(bytesOf("a needle")), want);
    expectAgreesWithNaive(patterns, bytesOf("needleneedneedleneedlee"));
}

TEST(LiteralMatcher, PatternRunningPastTheEndDoesNotCount)
{
    // The key fits before the end, the rest of the pattern does not.
    const std::vector<std::string> patterns = {"abcdefghijk", "abcdefgh"};
    const LiteralMatcher matcher(patterns);
    EXPECT_EQ(matcher.countMatches(bytesOf("xxabcdefghij")), 1u);
    EXPECT_EQ(matcher.countMatches(bytesOf("xxabcdefghijk")), 2u);
    expectAgreesWithNaive(patterns, bytesOf("abcdefghijkabcdefghij"));
}

TEST(LiteralMatcher, ShortestPatternAroundTheKeyCap)
{
    // m = min(shortest, 8): 1 turns the pair filter off, 2 is the
    // shortest key it runs with, 7 and 8 sit at the cap, 9 above it.
    Rng rng(29);
    for (std::size_t shortest : {1u, 2u, 7u, 8u, 9u}) {
        for (int trial = 0; trial < 10; ++trial) {
            std::vector<std::string> patterns;
            const std::size_t npat = 1 + rng.uniformInt(8);
            for (std::size_t i = 0; i < npat; ++i) {
                std::string p;
                const std::size_t len =
                    i == 0 ? shortest : shortest + rng.uniformInt(6);
                for (std::size_t j = 0; j < len; ++j)
                    p.push_back(static_cast<char>('a' + rng.uniformInt(3)));
                patterns.push_back(std::move(p));
            }
            std::vector<std::uint8_t> text(300);
            for (auto &c : text)
                c = static_cast<std::uint8_t>('a' + rng.uniformInt(3));
            SCOPED_TRACE("shortest " + std::to_string(shortest) +
                         ", trial " + std::to_string(trial));
            expectAgreesWithNaive(patterns, text);
        }
    }
}

TEST(LiteralMatcher, NulBytesInKeys)
{
    // Zero bytes inside a key must not read as the zero padding of a
    // shorter key, nor as an empty slot.
    const std::vector<std::string> patterns = {
        std::string(8, '\0'), std::string("a\0b\0c\0d\0e", 9),
        std::string("\0\0\0\0\0\0\0\0\x01", 9)};
    const std::vector<std::uint8_t> text = {
        0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 'b', 0, 'c', 0, 'd', 0, 'e',
        0, 0, 0, 0, 0, 0, 0};
    const LiteralMatcher matcher(patterns);
    // Eight zeros end at 8 and 9, eight zeros and 0x01 at 10, the
    // interleaved one at 19.
    EXPECT_EQ(matcher.countMatches(text), 4u);
    expectAgreesWithNaive(patterns, text);
}

TEST(LiteralMatcher, CandidatesInTheLastKeyBytes)
{
    // A pattern ending the text puts its candidate in the last 7
    // bytes (the partial-key copy) for m < 8, and at n - 1 for m = 1.
    for (std::size_t m = 1; m <= 9; ++m) {
        std::string p;
        for (std::size_t j = 0; j < m; ++j)
            p.push_back(static_cast<char>('p' + j));
        const std::vector<std::string> patterns = {p, p + "z"};
        for (std::size_t pad = 0; pad < 40; ++pad) {
            std::vector<std::uint8_t> text(pad, 'x');
            text.insert(text.end(), p.begin(), p.end());
            SCOPED_TRACE("m " + std::to_string(m) + ", pad " +
                         std::to_string(pad));
            EXPECT_EQ(LiteralMatcher(patterns).countMatches(text), 1u);
            expectAgreesWithNaive(patterns, text);
        }
    }
}

TEST(LiteralMatcher, RejectsAnEmptyPattern)
{
    EXPECT_THROW(LiteralMatcher({"abc", ""}), std::invalid_argument);
    EXPECT_EQ(LiteralMatcher({}).countMatches(bytesOf("abc")), 0u);
}

TEST(LiteralMatcher, Avx2FilterYieldsThePortableCandidates)
{
    if (!PairFilter::haveAvx2())
        GTEST_SKIP() << "this CPU has no AVX2; only the portable filter runs";
    Rng rng(31);
    for (int trial = 0; trial < 200; ++trial) {
        // F and S of 1..3 bytes, and in some trials up to 5, over the
        // budget, on one side.
        const std::size_t fSpan = trial % 7 == 0 ? 5 : 3;
        const std::size_t sSpan = trial % 7 == 1 ? 5 : 3;
        std::vector<std::string> patterns;
        const std::size_t npat = 1 + rng.uniformInt(6);
        for (std::size_t i = 0; i < npat; ++i)
            patterns.push_back({static_cast<char>('a' + rng.uniformInt(fSpan)),
                                static_cast<char>('a' + rng.uniformInt(sSpan)),
                                'z'});
        const PairFilter filter(patterns);
        ASSERT_TRUE(filter.narrows());
        // Exact-size text of 2..200 bytes over a slightly larger
        // alphabet; the filter reads through p[last] = p[n - 1].
        const std::size_t n = 2 + rng.uniformInt(199);
        std::vector<std::uint8_t> text(n);
        for (auto &c : text)
            c = static_cast<std::uint8_t>('a' + rng.uniformInt(8));
        const std::size_t last = n - 1;
        std::vector<std::size_t> portable, avx2;
        for (std::size_t i = filter.nextPortable(text.data(), 0, last);
             i < last; i = filter.nextPortable(text.data(), i + 1, last))
            portable.push_back(i);
        for (std::size_t i = filter.nextAvx2(text.data(), 0, last); i < last;
             i = filter.nextAvx2(text.data(), i + 1, last))
            avx2.push_back(i);
        ASSERT_EQ(avx2, portable) << "trial " << trial << ", n " << n;
    }
}

/** The matcher must agree with naive across ruleset sizes. */
class AhoRulesetSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(AhoRulesetSweep, CountsMatchNaive)
{
    const auto rules = halsim::alg::makeRuleset(
        halsim::alg::RulesetKind::Teakettle, GetParam(), 21);
    const auto text = halsim::alg::makeScanStream(5000, rules, 0.2, 22);
    LiteralMatcher matcher(rules);
    EXPECT_EQ(matcher.countMatches(text), naiveFindAll(rules, text).size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, AhoRulesetSweep,
                         ::testing::Values(1u, 10u, 100u, 500u));
