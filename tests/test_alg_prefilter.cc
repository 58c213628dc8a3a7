/**
 * @file
 * PrefilterMatcher: cross-engine equivalence with LiteralMatcher on the
 * REM rulesets and random inputs, prefilter selectivity, and edge
 * cases. Two test names keep AhoCorasick, the engine they were
 * written against, so their ids stay stable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "alg/corpus.hh"
#include "alg/literal_matcher.hh"
#include "funcs/content.hh"
#include "net/packet.hh"
#include "support/prefilter.hh"
#include "sim/rng.hh"

using namespace halsim;
using namespace halsim::alg;

namespace {

/** Matches in 300 MTU slices of each REM corpus (seed 41). */
constexpr std::uint64_t kTeakettleTotal = 460;
constexpr std::uint64_t kSnortTotal = 374;

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

void
sortMatches(std::vector<Match> &m)
{
    std::sort(m.begin(), m.end(), [](const Match &a, const Match &b) {
        return a.end != b.end ? a.end < b.end : a.pattern < b.pattern;
    });
}

} // namespace

TEST(Prefilter, RejectsShortPatterns)
{
    EXPECT_THROW(PrefilterMatcher({"abc"}), std::invalid_argument);
}

TEST(Prefilter, BasicMatch)
{
    PrefilterMatcher pf({"needle"});
    EXPECT_EQ(pf.countMatches(bytesOf("hayneedlehay")), 1u);
    EXPECT_EQ(pf.countMatches(bytesOf("no match here!")), 0u);
    EXPECT_EQ(pf.countMatches(bytesOf("nee")), 0u)
        << "text shorter than the window";
}

TEST(Prefilter, OverlappingAndRepeated)
{
    PrefilterMatcher pf({"abab"});
    EXPECT_EQ(pf.countMatches(bytesOf("abababab")), 3u);
}

TEST(Prefilter, AgreesWithAhoCorasickOnRulesets)
{
    for (auto kind :
         {RulesetKind::Teakettle, RulesetKind::SnortLiterals}) {
        const auto rules = makeRuleset(kind, 400, 31);
        LiteralMatcher ac(rules);
        PrefilterMatcher pf(rules);
        const auto text = makeScanStream(100000, rules, 0.2, 32);
        EXPECT_EQ(pf.countMatches(text), ac.countMatches(text))
            << rulesetName(kind);
    }
}

TEST(Prefilter, AgreesWithRemFunctionOnMtuSlices)
{
    // Each paper ruleset's REM corpus, sliced into MTU payloads by
    // RemFunction::makeRequest. The totals were taken with the
    // dense-table Aho-Corasick scanner, before the byte-class automaton
    // and then the literal matcher replaced it.
    const std::pair<RulesetKind, std::uint64_t> cases[] = {
        {RulesetKind::Teakettle, kTeakettleTotal},
        {RulesetKind::SnortLiterals, kSnortTotal},
    };
    for (const auto &[kind, pinned] : cases) {
        funcs::RemFunction rem(kind);
        const PrefilterMatcher pf(makeRuleset(
            kind, funcs::RemFunction::kRules, funcs::RemFunction::kSeed));
        Rng rng(41);
        std::uint64_t total = 0;
        for (int i = 0; i < 300; ++i) {
            auto pkt = net::makeUdpPacket(
                net::MacAddr::fromUint(1), net::MacAddr::fromUint(2),
                net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                40000, 9000, {}, net::kMtuFrameBytes);
            rem.makeRequest(*pkt, rng);
            const auto payload = pkt->payload();
            const std::uint64_t n = rem.matcher().countMatches(payload);
            ASSERT_EQ(pf.countMatches(payload), n)
                << rulesetName(kind) << " slice " << i;
            auto a = rem.matcher().findAll(payload);
            auto b = pf.findAll(payload);
            sortMatches(a);
            sortMatches(b);
            ASSERT_EQ(a, b) << rulesetName(kind) << " slice " << i;
            total += n;
        }
        EXPECT_EQ(total, pinned) << rulesetName(kind);
    }
}

TEST(Prefilter, FindAllAgreesWithAhoCorasick)
{
    const auto rules = makeRuleset(RulesetKind::Teakettle, 100, 33);
    LiteralMatcher ac(rules);
    PrefilterMatcher pf(rules);
    const auto text = makeScanStream(20000, rules, 0.3, 34);
    auto a = ac.findAll(text);
    auto b = pf.findAll(text);
    sortMatches(a);
    sortMatches(b);
    EXPECT_EQ(a, b);
}

TEST(Prefilter, RandomizedSmallAlphabetAgreement)
{
    // Dense overlaps stress the verify stage.
    Rng rng(35);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<std::string> patterns;
        for (int i = 0; i < 6; ++i) {
            std::string p;
            const std::size_t len = 4 + rng.uniformInt(4);
            for (std::size_t j = 0; j < len; ++j)
                p.push_back(static_cast<char>('a' + rng.uniformInt(2)));
            patterns.push_back(std::move(p));
        }
        std::vector<std::uint8_t> text(2000);
        for (auto &c : text)
            c = static_cast<std::uint8_t>('a' + rng.uniformInt(2));
        LiteralMatcher ac(patterns);
        PrefilterMatcher pf(patterns);
        EXPECT_EQ(pf.countMatches(text), ac.countMatches(text))
            << "trial " << trial;
    }
}

TEST(Prefilter, SelectiveOnCleanText)
{
    // Snort-style literals cluster on a few protocol prefixes
    // ("cmd=", "../" ...), so their bucket count is tiny but the
    // prefilter is still selective on clean traffic.
    const auto rules = makeRuleset(RulesetKind::SnortLiterals, 500, 36);
    PrefilterMatcher pf(rules);
    const auto clean = makeScanStream(100000, rules, 0.0, 37);
    EXPECT_EQ(pf.countMatches(clean), 0u);
    // The whole point of the prefilter: almost every position skips.
    EXPECT_LT(pf.lastHitRate(), 0.05);
}

TEST(Prefilter, TeakettleRulesSpreadAcrossBuckets)
{
    // Teakettle-style short words have diverse prefixes: the hash
    // table must spread them widely.
    const auto rules = makeRuleset(RulesetKind::Teakettle, 1000, 38);
    PrefilterMatcher pf(rules);
    EXPECT_GT(pf.populatedBuckets(), 300u);
}

TEST(Prefilter, BinarySafe)
{
    PrefilterMatcher pf({std::string("\x00\x01\x02\x03", 4)});
    std::vector<std::uint8_t> text = {0xff, 0x00, 0x01, 0x02,
                                      0x03, 0x00, 0x01};
    EXPECT_EQ(pf.countMatches(text), 1u);
}
