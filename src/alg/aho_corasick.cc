#include "alg/aho_corasick.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>

namespace halsim::alg {

AhoCorasick::AhoCorasick(const std::vector<std::string> &patterns)
{
    build(patterns);
}

void
AhoCorasick::build(const std::vector<std::string> &patterns)
{
    // 1. Byte classes: the pattern bytes in ascending order, then one
    //    "other" class for the rest (none when patterns use all 256).
    std::array<bool, 256> used{};
    for (const auto &p : patterns) {
        assert(!p.empty() && "empty pattern is not allowed");
        for (unsigned char c : p)
            used[c] = true;
    }
    std::array<std::uint8_t, 256> byteOf{};   // pattern class -> byte
    unsigned classes = 0;
    for (unsigned b = 0; b < 256; ++b)
        if (used[b]) {
            byteOf[classes] = static_cast<std::uint8_t>(b);
            classOf_[b] = static_cast<std::uint8_t>(classes++);
        }
    if (classes < 256) {
        for (unsigned b = 0; b < 256; ++b)
            if (!used[b])
                classOf_[b] = static_cast<std::uint8_t>(classes);
        ++classes;
    }
    stride_ = classes + 1;

    // 2. Sparse trie: first-child / next-sibling lists labelled by
    //    class, and the patterns ending at each node. Node 0 is the
    //    root.
    constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> firstChild(1, kNone), nextSibling(1, kNone);
    std::vector<std::uint8_t> label(1, 0);
    std::vector<std::vector<std::uint32_t>> own(1);
    for (std::uint32_t pi = 0; pi < patterns.size(); ++pi) {
        std::uint32_t s = 0;
        for (unsigned char c : patterns[pi]) {
            const std::uint8_t cls = classOf_[c];
            std::uint32_t child = firstChild[s];
            while (child != kNone && label[child] != cls)
                child = nextSibling[child];
            if (child == kNone) {
                child = static_cast<std::uint32_t>(label.size());
                firstChild.push_back(kNone);
                nextSibling.push_back(firstChild[s]);
                label.push_back(cls);
                own.emplace_back();
                firstChild[s] = child;
            }
            s = child;
        }
        own[s].push_back(pi);
    }

    // 3. Number the states in BFS order: a state's fail target is
    //    shallower, so its row is final before the state's is written,
    //    and the hot shallow rows sit together at the table's start.
    const std::size_t n = label.size();
    assert(n * stride_ <= std::numeric_limits<std::uint32_t>::max());
    std::vector<std::uint32_t> order(1, 0);
    order.reserve(n);
    std::vector<std::uint32_t> newId(n, 0);
    for (std::size_t i = 0; i < order.size(); ++i) {
        newId[order[i]] = static_cast<std::uint32_t>(i);
        for (std::uint32_t v = firstChild[order[i]]; v != kNone;
             v = nextSibling[v])
            order.push_back(v);
    }

    // 4. Rows in BFS order: each is a copy of its fail state's row
    //    (transitions and count) with its own children written over it
    //    and its own patterns added to the count. A child's fail state
    //    is the copied entry its edge overwrites.
    const std::uint32_t countCol = stride_ - 1;
    delta_.assign(n * stride_, 0);
    outputs_.resize(n);
    std::vector<std::uint32_t> fail(n, 0);   // premultiplied
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t *row = &delta_[std::size_t{i} * stride_];
        const auto [fb, fe] = outputs_[fail[i] / stride_];
        const auto &mine = own[order[i]];
        const auto begin = static_cast<std::uint32_t>(matchList_.size());
        matchList_.insert(matchList_.end(), mine.begin(), mine.end());
        if (i != 0) {
            std::copy_n(&delta_[fail[i]], stride_, row);
            for (std::uint32_t k = fb; k < fe; ++k) {
                const std::uint32_t id = matchList_[k];
                matchList_.push_back(id);
            }
        }
        row[countCol] += static_cast<std::uint32_t>(mine.size());
        outputs_[i] = {begin, static_cast<std::uint32_t>(matchList_.size())};
        for (std::uint32_t v = firstChild[order[i]]; v != kNone;
             v = nextSibling[v]) {
            fail[newId[v]] = row[label[v]];
            row[label[v]] = newId[v] * stride_;
        }
    }

    // 5. The prefix skip: F and S are the depth-1 and depth-2 labels.
    //    BFS numbered the depth-1 states 1..depth1.
    std::array<bool, 256> inF{}, inS{};
    std::uint32_t depth1 = 0;
    bool oneByte = false;
    for (std::uint32_t v = firstChild[0]; v != kNone; v = nextSibling[v]) {
        ++depth1;
        inF[byteOf[label[v]]] = true;
        oneByte = oneByte || !own[v].empty();
        for (std::uint32_t w = firstChild[v]; w != kNone; w = nextSibling[w])
            inS[byteOf[label[w]]] = true;
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
    skip_ = depth1 > 0 && !oneByte && !(first_.any && second_.any);
    shallowEnd_ = skip_ ? (1 + depth1) * stride_ : 0;
}

std::size_t
AhoCorasick::nextCandidate(const std::uint8_t *p, std::size_t from,
                           std::size_t n) const
{
    using Bytes16 = std::uint8_t __attribute__((vector_size(16)));
    const auto splat = [](const ByteSet &set) {
        std::array<Bytes16, kSetBudget> v;
        for (std::size_t i = 0; i < kSetBudget; ++i)
            v[i] = Bytes16{} + set.bytes[i];
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
    std::size_t j = std::max<std::size_t>(from, 1);
    for (; j + 16 <= n; j += 16) {
        Bytes16 prev, cur;
        std::memcpy(&prev, p + j - 1, sizeof prev);
        std::memcpy(&cur, p + j, sizeof cur);
        const Bytes16 hit = member(first_, f, prev) & member(second_, s, cur);
        std::uint64_t lanes[2];
        std::memcpy(lanes, &hit, sizeof lanes);
        if ((lanes[0] | lanes[1]) == 0)
            continue;
        // Lane k is pair j + k; memory order is lane order.
        const std::uint64_t w = lanes[0] != 0 ? lanes[0] : lanes[1];
        const std::size_t lane =
            (std::endian::native == std::endian::little
                 ? std::countr_zero(w)
                 : std::countl_zero(w)) / 8;
        return j + (lanes[0] != 0 ? 0 : 8) + lane;
    }
    for (; j < n; ++j)
        if (first_.has(p[j - 1]) && second_.has(p[j]))
            return j;
    return n;
}

std::uint64_t
AhoCorasick::countMatches(std::span<const std::uint8_t> data) const
{
    const std::uint32_t *delta = delta_.data();
    const std::uint8_t *cls = classOf_.data();
    const std::uint32_t countCol = stride_ - 1;
    const std::uint8_t *p = data.data();
    const std::size_t n = data.size();
    std::uint64_t count = 0;
    std::uint32_t s = 0;
    std::size_t i = 0;
    while (i < n) {
        if (skip_) {
            i = nextCandidate(p, i, n);
            if (i == n)
                break;
            s = delta[cls[p[i - 1]]];   // delta(root, p[i-1])
        }
        // Without the skip shallowEnd_ is 0 and this runs to the end.
        do {
            s = delta[s + cls[p[i]]];
            count += delta[s + countCol];
        } while (++i < n && s >= shallowEnd_);
    }
    return count;
}

std::vector<Match>
AhoCorasick::findAll(std::span<const std::uint8_t> data) const
{
    std::vector<Match> result;
    std::uint32_t s = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        s = delta_[s + classOf_[data[i]]];
        const auto [begin, end] = outputs_[s / stride_];
        for (std::uint32_t k = begin; k < end; ++k)
            result.push_back(Match{matchList_[k], i + 1});
    }
    return result;
}

} // namespace halsim::alg
