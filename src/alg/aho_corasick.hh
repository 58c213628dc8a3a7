/**
 * @file
 * Aho-Corasick multi-pattern matcher: the regular-expression-matching
 * (REM) substrate. The paper's REM function runs literal rulesets
 * (teakettle_2500, snort_literals) through the BF-2 RXP accelerator
 * or Hyperscan on the host; both engines reduce literal rulesets to
 * exactly this automaton.
 */

#ifndef HALSIM_ALG_AHO_CORASICK_HH
#define HALSIM_ALG_AHO_CORASICK_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace halsim::alg {

/** One pattern hit: which pattern ended at which offset. */
struct Match
{
    std::uint32_t pattern;   //!< index into the rule list
    std::size_t end;         //!< offset one past the last byte

    bool
    operator==(const Match &o) const
    {
        return pattern == o.pattern && end == o.end;
    }
};

/**
 * Byte-alphabet Aho-Corasick automaton with goto/fail links flattened
 * into a DFA over byte classes.
 *
 * Every byte that occurs in some pattern is its own class; all other
 * bytes share one "other" class, on which every state behaves alike.
 * The REM rulesets use 27 (teakettle) and 67 (snort) classes, so a
 * state's row is a quarter of a 256-column one or less. A row holds
 * the next state for each class, premultiplied by the row stride, and
 * ends with the state's match count.
 *
 * countMatches() skips the text where no match can begin. At the
 * root or at a depth-1 state, the next state is the root's successor
 * on the byte just read, because a depth-1 state fails to the root.
 * When every pattern has at least two bytes, those states count no
 * match, and the walk can leave depth <= 1 only at a byte pair
 * (p[j-1], p[j]) that begins some pattern: p[j-1] is in the set F of
 * first bytes and p[j] in the set S of second bytes. The scan tests
 * 16 pairs at a time for the next candidate j with one vector compare
 * per set byte, sets the state to delta(root, p[j-1]) there, and runs
 * the table until the state is back at depth <= 1. The count is exact:
 * every skipped byte would have left the walk at depth <= 1 with no
 * match, and the state the walk resumes in is the one it would hold.
 * A set of more than kSetBudget bytes counts as any byte. The skip
 * does not engage when a pattern has one byte (a depth-1 state then
 * counts a match) or when both sets exceed the budget (every pair
 * would be a candidate); the scan then reads one byte at a time with
 * the same table. Both REM rulesets engage it: teakettle has S = {q},
 * snort_literals F = {c, \, .} and S = {m, x, .}.
 */
class AhoCorasick
{
  public:
    /** Build the automaton for the given literal patterns. */
    explicit AhoCorasick(const std::vector<std::string> &patterns);

    /** Number of automaton states (hardware-cost proxy). */
    std::size_t stateCount() const { return outputs_.size(); }

    /** Count all matches (including overlaps) in @p data. */
    std::uint64_t countMatches(std::span<const std::uint8_t> data) const;

    /** Collect all matches; order is by end offset, then pattern. */
    std::vector<Match> findAll(std::span<const std::uint8_t> data) const;

  private:
    /** Most bytes a set may hold and still be compared for; has()
     *  and nextCandidate() spell out that many compares. */
    static constexpr std::size_t kSetBudget = 4;
    static_assert(kSetBudget == 4);

    /** F or S: up to kSetBudget bytes, padded by repeating the first,
     *  or any byte. */
    struct ByteSet
    {
        std::array<std::uint8_t, kSetBudget> bytes{};
        bool any = true;

        bool
        has(std::uint8_t c) const
        {
            return any || c == bytes[0] || c == bytes[1] || c == bytes[2] ||
                   c == bytes[3];
        }
    };

    void build(const std::vector<std::string> &patterns);

    /** Smallest j in [max(from, 1), n) with p[j-1] in F and p[j] in
     *  S, or n if there is none. */
    std::size_t nextCandidate(const std::uint8_t *p, std::size_t from,
                              std::size_t n) const;

    /** classOf_[byte] -> column of that byte's class in a row. */
    std::array<std::uint8_t, 256> classOf_{};
    /** Row length: one column per class, then the match count. */
    std::uint32_t stride_ = 1;
    /** Whether countMatches() skips to prefix candidates. */
    bool skip_ = false;
    /** First (F) and second (S) pattern bytes. */
    ByteSet first_, second_;
    /** Premultiplied id of the first state deeper than 1 when skip_,
     *  else 0: BFS numbering puts the root and depth 1 below it. */
    std::uint32_t shallowEnd_ = 0;
    /** delta_[s + class] -> next state s' (state index * stride_);
     *  delta_[s + stride_ - 1] -> matches ending in state s. */
    std::vector<std::uint32_t> delta_;
    /** outputs_[state index] -> indices into matchList_ (begin, end). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> outputs_;
    std::vector<std::uint32_t> matchList_;   //!< pattern ids, grouped
};

} // namespace halsim::alg

#endif // HALSIM_ALG_AHO_CORASICK_HH
