/**
 * @file
 * The analytics functions of Table IV: BM25 search ranking (2 K/4 K
 * terms), k-nearest-neighbour classification (set sizes 8/16), and a
 * naive Bayes classifier (128/256 features). All three build real
 * models at construction and compute real answers per request.
 */

#ifndef HALSIM_FUNCS_ANALYTICS_HH
#define HALSIM_FUNCS_ANALYTICS_HH

#include <cstdint>
#include <vector>

#include "funcs/function.hh"

namespace halsim::funcs {

/**
 * BM25 ranking over a synthetic inverted index.
 *
 * Request payload: [nterms:1][term_id:2] x nterms
 * Response payload: [doc_id:4][score_milli:8]
 */
class Bm25Function : public NetworkFunction
{
  public:
    static constexpr std::uint32_t kVocabulary = 4096; //!< 2 K or 4 K
    static constexpr std::uint32_t kDocuments = 1024;
    static constexpr std::uint32_t kAvgPostings = 24;  //!< docs per term
    static constexpr unsigned kQueryTerms = 8;
    static constexpr std::uint64_t kSeed = 1;

    Bm25Function();

    FunctionId id() const override { return FunctionId::Bm25; }
    bool stateful() const override { return false; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    /** BM25 score of @p doc for the given terms (test hook). */
    double score(std::uint32_t doc,
                 const std::vector<std::uint16_t> &terms) const;

  private:
    struct Posting
    {
        std::uint32_t doc;
        std::uint16_t tf;   //!< term frequency in the document
    };

    std::vector<std::vector<Posting>> postings_;  //!< per term
    std::vector<std::uint16_t> docLength_;
    double avgDocLength_ = 0.0;
    std::vector<double> idf_;
};

/**
 * k-NN classifier: L2 distance over 16 byte-features against a
 * per-class reference set, majority vote of the k nearest.
 *
 * Request payload: [features:16]
 * Response payload: [class:1]
 */
class KnnFunction : public NetworkFunction
{
  public:
    static constexpr unsigned kDims = 16;

    static constexpr unsigned kClasses = 4;
    /** Reference points per class (8 or 16 in the paper). */
    static constexpr unsigned kSetSize = 16;
    static constexpr unsigned kK = 3;
    static constexpr std::uint64_t kSeed = 2;

    KnnFunction();

    FunctionId id() const override { return FunctionId::Knn; }
    bool stateful() const override { return false; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    /** Classify a raw feature vector (test hook). */
    unsigned classify(const std::uint8_t *features) const;

    /** Cluster centre of @p cls (test hook for separability checks). */
    const std::uint8_t *centroid(unsigned cls) const;

  private:
    struct RefPoint
    {
        std::uint8_t features[kDims];
        std::uint8_t label;
    };

    std::vector<RefPoint> refs_;
    std::vector<std::array<std::uint8_t, kDims>> centroids_;
};

/**
 * Naive Bayes over binary features with integer log-likelihoods
 * (milli-nats, so the wire answer is platform-independent).
 *
 * Request payload: [feature bitset: n_features/8 bytes]
 * Response payload: [class:1]
 */
class BayesFunction : public NetworkFunction
{
  public:
    static constexpr unsigned kClasses = 4;
    static constexpr unsigned kFeatures = 256; //!< 128 or 256 in the paper
    static constexpr std::uint64_t kSeed = 3;

    BayesFunction();

    FunctionId id() const override { return FunctionId::Bayes; }
    bool stateful() const override { return false; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    /** Classify a feature bitset (test hook). */
    unsigned classify(const std::uint8_t *bits) const;

  private:
    /** logLik_[cls][feature][bit] in milli-nats. */
    std::vector<std::vector<std::array<std::int32_t, 2>>> logLik_;
    std::vector<std::int32_t> prior_;
    /** Per-class generative feature probabilities, for makeRequest. */
    std::vector<std::vector<double>> genProb_;
};

} // namespace halsim::funcs

#endif // HALSIM_FUNCS_ANALYTICS_HH
