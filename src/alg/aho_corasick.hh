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
 * countMatches() cuts a payload into kStreams contiguous chunks and
 * advances their state chains in one loop, so the table loads of the
 * four chains overlap instead of waiting on each other. Chunk k > 0
 * restarts at the root maxlen - 1 bytes before its boundary and counts
 * only matches that end inside it: a match ending at byte q starts no
 * earlier than q - maxlen + 1, so the count is exact. Below
 * kStreams * (maxlen - 1) bytes that warm-up would reach back past the
 * previous chunk's start, and the scan stays one stream; short frames
 * such as the Table V traces' are scanned that way.
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
    /** Interleaved chains in countMatches(). */
    static constexpr std::size_t kStreams = 4;

    void build(const std::vector<std::string> &patterns);

    /** classOf_[byte] -> column of that byte's class in a row. */
    std::array<std::uint8_t, 256> classOf_{};
    /** Row length: one column per class, then the match count. */
    std::uint32_t stride_ = 1;
    /** Bytes a chunk's chain replays before its boundary: maxlen - 1.
     *  Payloads of kStreams * warmup_ bytes or more are interleaved. */
    std::size_t warmup_ = 0;
    /** delta_[s + class] -> next state s' (state index * stride_);
     *  delta_[s + stride_ - 1] -> matches ending in state s. */
    std::vector<std::uint32_t> delta_;
    /** outputs_[state index] -> indices into matchList_ (begin, end). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> outputs_;
    std::vector<std::uint32_t> matchList_;   //!< pattern ids, grouped
};

} // namespace halsim::alg

#endif // HALSIM_ALG_AHO_CORASICK_HH
