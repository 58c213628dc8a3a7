#include "funcs/analytics.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>

#include "net/bytes.hh"

namespace halsim::funcs {

using net::load16;
using net::store16;
using net::store32;
using net::store64;

Bm25Function::Bm25Function()
{
    Rng rng(kSeed ^ 0xB25);
    postings_.resize(kVocabulary);
    docLength_.resize(kDocuments);

    // Document lengths around 200 +- 80 terms.
    std::uint64_t total_len = 0;
    for (auto &dl : docLength_) {
        dl = static_cast<std::uint16_t>(
            std::max(20.0, rng.normal(200.0, 80.0)));
        total_len += dl;
    }
    avgDocLength_ =
        static_cast<double>(total_len) / static_cast<double>(kDocuments);

    // Zipf-ish postings: low term ids are common, high ids rare.
    for (std::uint32_t t = 0; t < kVocabulary; ++t) {
        const double rarity =
            1.0 - static_cast<double>(t) / kVocabulary;
        const auto n = static_cast<std::uint32_t>(
            1 + kAvgPostings * rarity * 2.0 * rng.uniform());
        auto &list = postings_[t];
        for (std::uint32_t i = 0; i < n; ++i) {
            Posting p;
            p.doc = static_cast<std::uint32_t>(
                rng.uniformInt(kDocuments));
            p.tf = static_cast<std::uint16_t>(1 + rng.uniformInt(8));
            list.push_back(p);
        }
        std::sort(list.begin(), list.end(),
                  [](const Posting &a, const Posting &b) {
                      return a.doc < b.doc;
                  });
        // idf = ln((N - df + 0.5) / (df + 0.5) + 1)  (BM25+ style)
        const double df = static_cast<double>(list.size());
        idf_.push_back(std::log(
            (static_cast<double>(kDocuments) - df + 0.5) /
                (df + 0.5) +
            1.0));
    }
}

double
Bm25Function::score(std::uint32_t doc,
                    const std::vector<std::uint16_t> &terms) const
{
    constexpr double k1 = 1.2, b = 0.75;
    double s = 0.0;
    for (std::uint16_t t : terms) {
        if (t >= kVocabulary)
            continue;
        for (const Posting &p : postings_[t]) {
            if (p.doc != doc)
                continue;
            const double tf = p.tf;
            const double norm =
                k1 * (1.0 - b + b * docLength_[doc] / avgDocLength_);
            s += idf_[t] * tf * (k1 + 1.0) / (tf + norm);
        }
    }
    return s;
}

void
Bm25Function::process(net::Packet &pkt, coherence::StateContext &)
{
    auto p = pkt.payload();
    const unsigned nterms = std::min<unsigned>(
        p[0], static_cast<unsigned>((p.size() - 1) / 2));

    // Accumulate BM25 contributions per document across the query's
    // posting lists, tracking the argmax.
    constexpr double k1 = 1.2, b = 0.75;
    // Small dense accumulator: documents is ~1K.
    thread_local std::vector<double> acc;
    acc.assign(kDocuments, 0.0);
    for (unsigned i = 0; i < nterms; ++i) {
        const std::uint16_t t = load16(p.data() + 1 + 2 * i);
        if (t >= kVocabulary)
            continue;
        const double idf = idf_[t];
        for (const Posting &post : postings_[t]) {
            const double tf = post.tf;
            const double norm =
                k1 * (1.0 - b +
                      b * docLength_[post.doc] / avgDocLength_);
            acc[post.doc] += idf * tf * (k1 + 1.0) / (tf + norm);
        }
    }
    std::uint32_t best_doc = 0;
    double best = -1.0;
    for (std::uint32_t d = 0; d < kDocuments; ++d) {
        if (acc[d] > best) {
            best = acc[d];
            best_doc = d;
        }
    }
    store32(p.data(), best_doc);
    store64(p.data() + 4,
            static_cast<std::uint64_t>(std::max(0.0, best) * 1000.0));
}

void
Bm25Function::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    if (p.empty())
        return;
    const unsigned nterms =
        std::min(kQueryTerms, static_cast<unsigned>((p.size() - 1) / 2));
    p[0] = static_cast<std::uint8_t>(nterms);
    for (unsigned i = 0; i < nterms; ++i) {
        // Bias queries toward common (low-id) terms.
        const double u = rng.uniform();
        const auto t = static_cast<std::uint16_t>(
            u * u * static_cast<double>(kVocabulary - 1));
        store16(p.data() + 1 + 2 * i, t);
    }
}

KnnFunction::KnnFunction()
{
    Rng rng(kSeed ^ 0x4A4);
    // Well-separated class centroids, reference points near them.
    centroids_.resize(kClasses);
    for (unsigned c = 0; c < kClasses; ++c) {
        for (unsigned d = 0; d < kDims; ++d)
            centroids_[c][d] = static_cast<std::uint8_t>(
                rng.uniformInt(40) + 10 + (200 / kClasses) * c);
    }
    for (unsigned c = 0; c < kClasses; ++c) {
        for (unsigned i = 0; i < kSetSize; ++i) {
            RefPoint r;
            r.label = static_cast<std::uint8_t>(c);
            for (unsigned d = 0; d < kDims; ++d) {
                const int v = centroids_[c][d] +
                              static_cast<int>(rng.normal(0.0, 6.0));
                r.features[d] =
                    static_cast<std::uint8_t>(std::clamp(v, 0, 255));
            }
            refs_.push_back(r);
        }
    }
}

unsigned
KnnFunction::classify(const std::uint8_t *features) const
{
    struct Neighbour
    {
        std::uint32_t dist;
        std::uint8_t label;
    };
    // Insertion sort into a tiny k-array (k is 3).
    std::vector<Neighbour> best(kK,
                                {0xffffffffu, 0});
    for (const RefPoint &r : refs_) {
        std::uint32_t d2 = 0;
        for (unsigned d = 0; d < kDims; ++d) {
            const int diff = static_cast<int>(features[d]) - r.features[d];
            d2 += static_cast<std::uint32_t>(diff * diff);
        }
        if (d2 < best.back().dist) {
            best.back() = {d2, r.label};
            for (std::size_t i = best.size() - 1;
                 i > 0 && best[i].dist < best[i - 1].dist; --i)
                std::swap(best[i], best[i - 1]);
        }
    }
    // Majority vote; ties resolve to the nearest.
    std::vector<unsigned> votes(kClasses, 0);
    for (const auto &n : best)
        if (n.dist != 0xffffffffu)
            ++votes[n.label];
    unsigned win = best[0].label;
    for (unsigned c = 0; c < kClasses; ++c)
        if (votes[c] > votes[win])
            win = c;
    return win;
}

const std::uint8_t *
KnnFunction::centroid(unsigned cls) const
{
    return centroids_[cls].data();
}

void
KnnFunction::process(net::Packet &pkt, coherence::StateContext &)
{
    auto p = pkt.payload();
    // Features a short payload lacks read as 0.
    std::array<std::uint8_t, kDims> q{};
    std::memcpy(q.data(), p.data(), std::min<std::size_t>(p.size(), kDims));
    p[0] = static_cast<std::uint8_t>(classify(q.data()));
}

void
KnnFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    // Query near a random class centroid, with noise.
    const unsigned c = static_cast<unsigned>(rng.uniformInt(kClasses));
    std::array<std::uint8_t, kDims> q;
    for (unsigned d = 0; d < kDims; ++d) {
        const int v = centroids_[c][d] +
                      static_cast<int>(rng.normal(0.0, 10.0));
        q[d] = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
    }
    std::memcpy(p.data(), q.data(), std::min<std::size_t>(p.size(), kDims));
}

BayesFunction::BayesFunction()
{
    Rng rng(kSeed ^ 0xBA7E5);
    logLik_.resize(kClasses);
    genProb_.resize(kClasses);
    prior_.assign(kClasses, 0);
    for (unsigned c = 0; c < kClasses; ++c) {
        logLik_[c].resize(kFeatures);
        genProb_[c].resize(kFeatures);
        for (unsigned f = 0; f < kFeatures; ++f) {
            // Class-dependent Bernoulli parameter in [0.05, 0.95].
            const double p1 = 0.05 + 0.9 * rng.uniform();
            genProb_[c][f] = p1;
            logLik_[c][f][1] =
                static_cast<std::int32_t>(std::log(p1) * 1000.0);
            logLik_[c][f][0] =
                static_cast<std::int32_t>(std::log(1.0 - p1) * 1000.0);
        }
        prior_[c] = static_cast<std::int32_t>(
            std::log(1.0 / kClasses) * 1000.0);
    }
}

unsigned
BayesFunction::classify(const std::uint8_t *bits) const
{
    unsigned best_cls = 0;
    std::int64_t best = INT64_MIN;
    for (unsigned c = 0; c < kClasses; ++c) {
        std::int64_t score = prior_[c];
        for (unsigned f = 0; f < kFeatures; ++f) {
            const int bit = (bits[f / 8] >> (f % 8)) & 1;
            score += logLik_[c][f][bit];
        }
        if (score > best) {
            best = score;
            best_cls = c;
        }
    }
    return best_cls;
}

void
BayesFunction::process(net::Packet &pkt, coherence::StateContext &)
{
    auto p = pkt.payload();
    // Feature bits a short payload lacks read as 0.
    std::array<std::uint8_t, (kFeatures + 7) / 8> bits{};
    std::memcpy(bits.data(), p.data(),
                std::min<std::size_t>(p.size(), bits.size()));
    p[0] = static_cast<std::uint8_t>(classify(bits.data()));
}

void
BayesFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    const unsigned c = static_cast<unsigned>(rng.uniformInt(kClasses));
    std::array<std::uint8_t, (kFeatures + 7) / 8> bits{};
    for (unsigned f = 0; f < kFeatures; ++f)
        if (rng.chance(genProb_[c][f]))
            bits[f / 8] |= static_cast<std::uint8_t>(1u << (f % 8));
    std::memcpy(p.data(), bits.data(),
                std::min<std::size_t>(p.size(), bits.size()));
}

} // namespace halsim::funcs
