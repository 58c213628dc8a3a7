/**
 * @file
 * The content-processing functions: plain DPDK forwarding, REM
 * (literal multi-pattern matching over the payload with teakettle/
 * snort rulesets), public-key cryptography (RSA / DH /
 * DSA over real bignum modexp), and Deflate compression.
 */

#ifndef HALSIM_FUNCS_CONTENT_HH
#define HALSIM_FUNCS_CONTENT_HH

#include <cstdint>
#include <vector>

#include "alg/bignum.hh"
#include "alg/corpus.hh"
#include "alg/literal_matcher.hh"
#include "funcs/function.hh"

namespace halsim::funcs {

/**
 * Baseline DPDK packet processing: receive, touch the header, echo.
 * The paper uses this to characterize raw SNIC/host packet rates.
 */
class DpdkFwdFunction : public NetworkFunction
{
  public:
    FunctionId id() const override { return FunctionId::DpdkFwd; }
    bool stateful() const override { return false; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;
};

/**
 * Regular-expression matching (Hyperscan-style literal rulesets run
 * through alg::LiteralMatcher).
 *
 * Request payload: scan text (whole payload)
 * Response payload: [match_count:8]
 */
class RemFunction : public NetworkFunction
{
  public:
    static constexpr std::size_t kRules = 2500;
    /** Fraction of generated payload windows with a planted hit. */
    static constexpr double kHitRate = 0.05;
    static constexpr std::uint64_t kSeed = 5;
    /** Bytes of the scan corpus payloads are sliced from. */
    static constexpr std::size_t kCorpusBytes = std::size_t{1} << 20;

    explicit RemFunction(
        alg::RulesetKind ruleset = alg::RulesetKind::Teakettle);

    FunctionId id() const override { return FunctionId::Rem; }
    bool stateful() const override { return false; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    const alg::LiteralMatcher &matcher() const { return matcher_; }
    std::uint64_t totalMatches() const { return totalMatches_; }

  private:
    std::vector<std::string> rules_;
    alg::LiteralMatcher matcher_;
    /** Pre-generated scan corpus sliced into payloads. */
    std::vector<std::uint8_t> corpus_;
    std::uint64_t totalMatches_ = 0;
};

/**
 * Public-key cryptography: signs the packet digest with one of
 * RSA / DH / DSA-style modular exponentiations over a 512-bit group.
 *
 * Request payload: [op:1][message...]
 *   op 0 = RSA-style (digest^e mod n, e = 65537)
 *   op 1 = DH-style  (g^x mod p, x from digest)
 *   op 2 = DSA-style (g^k mod p combined with digest)
 * Response payload: [op:1][result bytes:64]
 */
class CryptoFunction : public NetworkFunction
{
  public:
    /** Exponent bits used for the DH/DSA ephemeral exponents; kept
     *  modest so a real modexp per packet stays cheap. */
    static constexpr unsigned kExponentBits = 16;
    /** Bytes of payload covered by the signature digest (real
     *  protocols sign a digest of the session material, not the bulk
     *  payload). */
    static constexpr std::size_t kDigestBytes = 256;

    CryptoFunction();

    FunctionId id() const override { return FunctionId::Crypto; }
    bool stateful() const override { return false; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    const alg::BigUint &modulus() const { return n_; }

  private:
    alg::BigUint n_;   //!< 512-bit prime modulus
    alg::BigUint g_;   //!< generator
    alg::BigUint e_;   //!< RSA-style public exponent
};

/**
 * Deflate compression of the payload (Silesia-like content).
 *
 * Request payload: raw data (whole payload)
 * Response payload: [orig_len:4][comp_len:4][compressed prefix...]
 */
class CompressFunction : public NetworkFunction
{
  public:
    static constexpr unsigned kMaxChain = 16;   //!< per-packet effort
    static constexpr std::uint64_t kSeed = 6;

    CompressFunction();

    FunctionId id() const override { return FunctionId::Compress; }
    /**
     * The paper treats compression as stateful (it processes a file
     * stream) and excludes it from cooperative processing; we keep
     * the flag so the harness can do the same.
     */
    bool stateful() const override { return true; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    std::uint64_t bytesIn() const { return bytesIn_; }
    std::uint64_t bytesOut() const { return bytesOut_; }

  private:
    std::vector<std::uint8_t> corpus_;
    std::uint64_t bytesIn_ = 0;
    std::uint64_t bytesOut_ = 0;
};

} // namespace halsim::funcs

#endif // HALSIM_FUNCS_CONTENT_HH
