#include "alg/literal_matcher.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HALSIM_HAVE_X86 1
#endif

namespace halsim::alg {

namespace {

/** Home slot of @p key in a table of 2^(64 - shift) slots. */
std::size_t
slotOf(std::uint64_t key, unsigned shift)
{
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
}

} // namespace

PairFilter::PairFilter(const std::vector<std::string> &patterns)
{
    std::array<bool, 256> inF{}, inS{};
    for (const auto &p : patterns) {
        if (p.size() < 2)
            return;   // both sets stay any byte
        inF[static_cast<std::uint8_t>(p[0])] = true;
        inS[static_cast<std::uint8_t>(p[1])] = true;
    }
    const auto setOf = [](const std::array<bool, 256> &in) {
        ByteSet set;
        std::size_t k = 0;
        for (unsigned b = 0; b < 256; ++b) {
            if (!in[b])
                continue;
            if (k == kSetBudget)
                return set;   // over budget: any byte
            set.bytes[k++] = static_cast<std::uint8_t>(b);
        }
        for (std::size_t i = k; i < kSetBudget; ++i)
            set.bytes[i] = set.bytes[0];
        set.any = false;
        return set;
    };
    first_ = setOf(inF);
    second_ = setOf(inS);
}

bool
PairFilter::haveAvx2()
{
#ifdef HALSIM_HAVE_X86
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

std::size_t
PairFilter::nextPortable(const std::uint8_t *p, std::size_t i,
                         std::size_t last) const
{
    using Bytes16 = std::uint8_t __attribute__((vector_size(16)));
    const auto splat = [](const ByteSet &set) {
        std::array<Bytes16, kSetBudget> v;
        for (std::size_t k = 0; k < kSetBudget; ++k)
            v[k] = Bytes16{} + set.bytes[k];
        return v;
    };
    const auto member = [](const ByteSet &set,
                           const std::array<Bytes16, kSetBudget> &v,
                           Bytes16 x) {
        if (set.any)
            return ~Bytes16{};
        return (Bytes16)((x == v[0]) | (x == v[1]) | (x == v[2]) |
                         (x == v[3]));
    };
    const auto f = splat(first_);
    const auto s = splat(second_);
    for (; i + 16 <= last; i += 16) {
        Bytes16 cur, nxt;
        std::memcpy(&cur, p + i, sizeof cur);
        std::memcpy(&nxt, p + i + 1, sizeof nxt);
        const Bytes16 hit = member(first_, f, cur) & member(second_, s, nxt);
        std::uint64_t lanes[2];
        std::memcpy(lanes, &hit, sizeof lanes);
        if ((lanes[0] | lanes[1]) == 0)
            continue;
        // Lane k is pair i + k; memory order is lane order.
        const std::uint64_t w = lanes[0] != 0 ? lanes[0] : lanes[1];
        const std::size_t lane =
            (std::endian::native == std::endian::little
                 ? std::countr_zero(w)
                 : std::countl_zero(w)) / 8;
        return i + (lanes[0] != 0 ? 0 : 8) + lane;
    }
    for (; i < last; ++i)
        if (first_.has(p[i]) && second_.has(p[i + 1]))
            return i;
    return last;
}

#ifdef HALSIM_HAVE_X86
__attribute__((target("avx2"))) std::size_t
PairFilter::nextAvx2(const std::uint8_t *p, std::size_t i,
                     std::size_t last) const
{
    // No lambdas here: they would not inherit the AVX2 target.
    const __m256i ones = _mm256_set1_epi8(-1);
    const __m256i f0 = _mm256_set1_epi8(static_cast<char>(first_.bytes[0]));
    const __m256i f1 = _mm256_set1_epi8(static_cast<char>(first_.bytes[1]));
    const __m256i f2 = _mm256_set1_epi8(static_cast<char>(first_.bytes[2]));
    const __m256i f3 = _mm256_set1_epi8(static_cast<char>(first_.bytes[3]));
    const __m256i s0 = _mm256_set1_epi8(static_cast<char>(second_.bytes[0]));
    const __m256i s1 = _mm256_set1_epi8(static_cast<char>(second_.bytes[1]));
    const __m256i s2 = _mm256_set1_epi8(static_cast<char>(second_.bytes[2]));
    const __m256i s3 = _mm256_set1_epi8(static_cast<char>(second_.bytes[3]));
    if (last < 32) {
        for (; i < last; ++i)
            if (first_.has(p[i]) && second_.has(p[i + 1]))
                return i;
        return last;
    }
    // The last step re-reads the final 32 pairs with the lanes below i
    // masked off, so no SSE tail runs with the upper halves dirty.
    for (; i < last; i += 32) {
        const std::size_t at = i + 32 <= last ? i : last - 32;
        const __m256i cur =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p + at));
        const __m256i nxt =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p + at + 1));
        __m256i inF = ones, inS = ones;
        if (!first_.any)
            inF = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpeq_epi8(cur, f0),
                                _mm256_cmpeq_epi8(cur, f1)),
                _mm256_or_si256(_mm256_cmpeq_epi8(cur, f2),
                                _mm256_cmpeq_epi8(cur, f3)));
        if (!second_.any)
            inS = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpeq_epi8(nxt, s0),
                                _mm256_cmpeq_epi8(nxt, s1)),
                _mm256_or_si256(_mm256_cmpeq_epi8(nxt, s2),
                                _mm256_cmpeq_epi8(nxt, s3)));
        const auto hits =
            static_cast<std::uint32_t>(
                _mm256_movemask_epi8(_mm256_and_si256(inF, inS))) &
            (~std::uint32_t{0} << (i - at));
        if (hits != 0)
            return at + static_cast<std::size_t>(std::countr_zero(hits));
    }
    return last;
}
#else
std::size_t
PairFilter::nextAvx2(const std::uint8_t *p, std::size_t i,
                     std::size_t last) const
{
    return nextPortable(p, i, last);
}
#endif

LiteralMatcher::LiteralMatcher(const std::vector<std::string> &patterns)
    : filter_(patterns)
{
    std::size_t total = 0;
    for (const auto &p : patterns) {
        if (p.empty())
            throw std::invalid_argument("LiteralMatcher: empty pattern");
        keyLen_ = std::min(keyLen_, p.size());
        total += p.size();
    }
    if (total > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("LiteralMatcher: patterns over 4 GiB");
    std::memset(&keyMask_, 0xff, keyLen_);

    // Patterns sorted by key, so that each key's run is contiguous and
    // in pattern order.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> byKey;
    byKey.reserve(patterns.size());
    for (std::uint32_t pi = 0; pi < patterns.size(); ++pi) {
        std::uint64_t key = 0;
        std::memcpy(&key, patterns[pi].data(), keyLen_);
        byKey.emplace_back(key, pi);
    }
    std::sort(byKey.begin(), byKey.end());

    // At most half the slots in use keeps probe runs short.
    std::size_t keys = 0;
    for (std::size_t k = 0; k < byKey.size(); ++k)
        keys += k == 0 || byKey[k].first != byKey[k - 1].first;
    const std::size_t slots = std::bit_ceil(std::max<std::size_t>(2, 2 * keys));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    slots_.assign(slots, Slot{});
    entries_.reserve(patterns.size());
    bytes_.reserve(total - patterns.size() * keyLen_);
    Slot *run = nullptr;
    for (std::size_t k = 0; k < byKey.size(); ++k) {
        const auto [key, pi] = byKey[k];
        if (k == 0 || key != byKey[k - 1].first) {
            std::size_t at = slotOf(key, shift_);
            while (slots_[at].end != 0)
                at = (at + 1) & (slots - 1);
            run = &slots_[at];
            run->key = key;
            run->begin = static_cast<std::uint32_t>(entries_.size());
        }
        const std::string &p = patterns[pi];
        entries_.push_back(Entry{static_cast<std::uint32_t>(bytes_.size()),
                                 static_cast<std::uint32_t>(p.size()), pi});
        bytes_.insert(bytes_.end(), p.begin() + keyLen_, p.end());
        run->end = static_cast<std::uint32_t>(entries_.size());
    }
}

std::size_t
LiteralMatcher::tableBytes() const
{
    return slots_.size() * sizeof(Slot) + entries_.size() * sizeof(Entry) +
           bytes_.size();
}

template <class Visit>
void
LiteralMatcher::scan(std::span<const std::uint8_t> data, Visit &&visit) const
{
    const std::uint8_t *p = data.data();
    const std::size_t n = data.size();
    if (n < keyLen_ || entries_.empty())
        return;
    // Offsets at which a whole key fits. The filter reads through
    // p[last], inside the text: it narrows only when every pattern,
    // and so the key, has two bytes or more.
    const std::size_t last = n - keyLen_ + 1;
    const bool narrows = filter_.narrows();
    const Slot *slots = slots_.data();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = narrows ? filter_.next(p, 0, last) : 0; i < last;
         i = narrows ? filter_.next(p, i + 1, last) : i + 1) {
        const std::size_t avail = n - i;
        std::uint64_t key = 0;
        if (avail >= sizeof key) {
            std::memcpy(&key, p + i, sizeof key);
            key &= keyMask_;
        } else {
            std::memcpy(&key, p + i, keyLen_);
        }
        std::size_t at = slotOf(key, shift_);
        while (slots[at].end != 0 && slots[at].key != key)
            at = (at + 1) & mask;
        const Slot &slot = slots[at];
        for (std::uint32_t e = slot.begin; e < slot.end; ++e) {
            // bytes_ is empty, data() null, when every pattern is its
            // key, so a zero-length compare is skipped, not made.
            const Entry &entry = entries_[e];
            const std::size_t rest = entry.len - keyLen_;
            if (entry.len <= avail &&
                (rest == 0 || std::memcmp(bytes_.data() + entry.tail,
                                          p + i + keyLen_, rest) == 0))
                visit(i, entry);
        }
    }
}

std::uint64_t
LiteralMatcher::countMatches(std::span<const std::uint8_t> data) const
{
    std::uint64_t count = 0;
    scan(data, [&count](std::size_t, const Entry &) { ++count; });
    return count;
}

std::vector<Match>
LiteralMatcher::findAll(std::span<const std::uint8_t> data) const
{
    std::vector<Match> result;
    scan(data, [&result](std::size_t i, const Entry &e) {
        result.push_back(Match{e.pattern, i + e.len});
    });
    std::sort(result.begin(), result.end(),
              [](const Match &a, const Match &b) {
                  return a.end != b.end ? a.end < b.end
                                        : a.pattern < b.pattern;
              });
    return result;
}

} // namespace halsim::alg
