#include "alg/aho_corasick.hh"

#include <algorithm>
#include <cassert>
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
    std::size_t maxLen = 0;
    for (const auto &p : patterns) {
        assert(!p.empty() && "empty pattern is not allowed");
        maxLen = std::max(maxLen, p.size());
        for (unsigned char c : p)
            used[c] = true;
    }
    unsigned classes = 0;
    for (unsigned b = 0; b < 256; ++b)
        if (used[b])
            classOf_[b] = static_cast<std::uint8_t>(classes++);
    if (classes < 256) {
        for (unsigned b = 0; b < 256; ++b)
            if (!used[b])
                classOf_[b] = static_cast<std::uint8_t>(classes);
        ++classes;
    }
    stride_ = classes + 1;
    warmup_ = maxLen > 0 ? maxLen - 1 : 0;

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
}

std::uint64_t
AhoCorasick::countMatches(std::span<const std::uint8_t> data) const
{
    static_assert(kStreams == 4, "the interleaved loop keeps four chains");
    const std::uint32_t *delta = delta_.data();
    const std::uint8_t *cls = classOf_.data();
    const std::uint32_t countCol = stride_ - 1;
    const std::uint8_t *p = data.data();
    const std::size_t n = data.size();
    std::uint64_t count = 0;
    std::uint32_t s = 0;
    std::size_t i = 0;
    if (n >= kStreams * warmup_) {
        // Chunk k is [k*len, (k+1)*len); the n % 4 tail goes on with
        // chunk 3's chain below.
        const std::size_t len = n / kStreams;
        const std::uint8_t *p1 = p + len - warmup_;
        const std::uint8_t *p2 = p1 + len;
        const std::uint8_t *p3 = p2 + len;
        std::uint32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (std::size_t j = 0; j < warmup_; ++j) {
            s1 = delta[s1 + cls[p1[j]]];
            s2 = delta[s2 + cls[p2[j]]];
            s3 = delta[s3 + cls[p3[j]]];
        }
        p1 += warmup_;
        p2 += warmup_;
        p3 += warmup_;
        for (std::size_t j = 0; j < len; ++j) {
            s0 = delta[s0 + cls[p[j]]];
            s1 = delta[s1 + cls[p1[j]]];
            s2 = delta[s2 + cls[p2[j]]];
            s3 = delta[s3 + cls[p3[j]]];
            count += delta[s0 + countCol] + delta[s1 + countCol] +
                     delta[s2 + countCol] + delta[s3 + countCol];
        }
        s = s3;
        i = kStreams * len;
    }
    for (; i < n; ++i) {
        s = delta[s + cls[p[i]]];
        count += delta[s + countCol];
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
