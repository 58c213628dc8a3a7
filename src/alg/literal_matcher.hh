/**
 * @file
 * Multi-literal matcher: the regular-expression-matching (REM)
 * substrate. The paper's REM function runs literal rulesets
 * (teakettle_2500, snort_literals) through the BF-2 RXP accelerator
 * or Hyperscan on the host. This matcher has the shape of Hyperscan's
 * literal path (Wang et al., NSDI '19): a byte-pair prefilter proposes
 * the positions where a pattern can begin, and a small hash table
 * verifies each of them exactly.
 */

#ifndef HALSIM_ALG_LITERAL_MATCHER_HH
#define HALSIM_ALG_LITERAL_MATCHER_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
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
 * The byte-pair prefilter. Position i is a candidate when p[i] is in
 * F, the set of the patterns' first bytes, and p[i+1] in S, the set
 * of their second bytes, so every occurrence of a pattern starts at a
 * candidate. A set of more than kSetBudget bytes counts as any byte,
 * and so do both when a pattern has a single byte. Both REM rulesets
 * narrow: teakettle has S = {q}, snort_literals F = {c, \, .} and
 * S = {m, x, .}.
 *
 * next() runs 32 pairs per step with AVX2 where the CPU has it and 16
 * per step with GCC/Clang vector extensions elsewhere; both yield the
 * same candidates.
 */
class PairFilter
{
  public:
    /** Most bytes a set may hold and still be compared for; the scan
     *  loops spell out that many compares. */
    static constexpr std::size_t kSetBudget = 4;
    static_assert(kSetBudget == 4);

    /** F and S of @p patterns. A pattern shorter than two bytes can
     *  begin where no pair does, at the last byte, so it makes both
     *  sets any byte. */
    explicit PairFilter(const std::vector<std::string> &patterns);

    /** Whether some byte pair is not a candidate. */
    bool narrows() const { return !(first_.any && second_.any); }

    /**
     * Smallest i in [from, last) with p[i] in F and p[i+1] in S, or
     * @p last if there is none. Reads no byte past p[last].
     */
    std::size_t
    next(const std::uint8_t *p, std::size_t from, std::size_t last) const
    {
        return avx2_ ? nextAvx2(p, from, last) : nextPortable(p, from, last);
    }

    /** next() in 16-pair vector-extension blocks, on any CPU. */
    std::size_t nextPortable(const std::uint8_t *p, std::size_t from,
                             std::size_t last) const;
    /** next() in 32-pair AVX2 blocks; only where haveAvx2(). */
    std::size_t nextAvx2(const std::uint8_t *p, std::size_t from,
                         std::size_t last) const;

    /** Whether this CPU runs AVX2 code. */
    static bool haveAvx2();

  private:
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

    ByteSet first_, second_;
    bool avx2_ = haveAvx2();
};

/**
 * Exact multi-literal matcher: counts every occurrence of every
 * pattern, overlapping and nested ones included, and duplicate
 * patterns once each.
 *
 * The key of a pattern is its first m bytes, m = min(shortest
 * pattern, kMaxKey). An open-addressing table maps each distinct key
 * to a run of entries, one per pattern with that key, each giving the
 * pattern's length and where its bytes past the key sit in one array.
 * At each PairFilter candidate i (every i when the filter cannot
 * narrow) the scan looks up the m text bytes at i and counts each
 * entry whose pattern fits before the end and whose remaining bytes
 * equal the text. The snort_literals ruleset (m = 8)
 * holds 115 KiB: 4096 slots, 2500 entries and 21 KiB of bytes past
 * the keys.
 */
class LiteralMatcher
{
  public:
    /** Build the table for the given non-empty literal patterns.
     *  @throws std::invalid_argument on an empty pattern */
    explicit LiteralMatcher(const std::vector<std::string> &patterns);

    /** Bytes held by the slots, the entries and the pattern bytes. */
    std::size_t tableBytes() const;

    /** Count all matches (including overlaps) in @p data. */
    std::uint64_t countMatches(std::span<const std::uint8_t> data) const;

    /** Collect all matches; order is by end offset, then pattern. */
    std::vector<Match> findAll(std::span<const std::uint8_t> data) const;

  private:
    /** Longest key: one 8-byte load. */
    static constexpr std::size_t kMaxKey = 8;

    /** A distinct key and its run [begin, end) of entries_; an empty
     *  slot has end == 0. */
    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

    /** One pattern under its key. */
    struct Entry
    {
        std::uint32_t tail;      //!< offset in bytes_ of the bytes past the key
        std::uint32_t len;       //!< pattern length
        std::uint32_t pattern;   //!< index into the rule list
    };

    /** Call visit(i, entry) for each pattern that occurs at offset i,
     *  in increasing i. */
    template <class Visit>
    void scan(std::span<const std::uint8_t> data, Visit &&visit) const;

    std::size_t keyLen_ = kMaxKey;   //!< m
    std::uint64_t keyMask_ = 0;      //!< the first m bytes of a load
    PairFilter filter_;
    unsigned shift_ = 63;   //!< 64 - log2(slots_.size())
    std::vector<Slot> slots_;
    std::vector<Entry> entries_;   //!< runs, each in pattern order
    std::vector<std::uint8_t> bytes_;   //!< the patterns past their keys
};

} // namespace halsim::alg

#endif // HALSIM_ALG_LITERAL_MATCHER_HH
