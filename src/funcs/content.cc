#include "funcs/content.hh"

#include <algorithm>
#include <cstring>

#include "alg/deflate.hh"
#include "alg/sha256.hh"
#include "net/bytes.hh"

namespace halsim::funcs {

using net::store32;
using net::store64;

void
DpdkFwdFunction::process(net::Packet &pkt, coherence::StateContext &)
{
    // Touch the header the way l2fwd does: swap Ethernet addresses.
    auto eth = pkt.eth();
    const net::MacAddr d = eth.dst();
    eth.setDst(eth.src());
    eth.setSrc(d);
}

void
DpdkFwdFunction::makeRequest(net::Packet &, Rng &)
{
}

// Every payload slice fits the corpus: the validators cap frames at
// net::kMaxFrameBytes.
static_assert(RemFunction::kCorpusBytes > net::kMaxFrameBytes);

RemFunction::RemFunction(alg::RulesetKind ruleset)
    : rules_(alg::makeRuleset(ruleset, kRules, kSeed)), matcher_(rules_),
      corpus_(alg::makeScanStream(kCorpusBytes, rules_, kHitRate,
                                  kSeed ^ 0xC0))
{}

void
RemFunction::process(net::Packet &pkt, coherence::StateContext &)
{
    auto p = pkt.payload();
    const std::uint64_t matches = matcher_.countMatches(p);
    totalMatches_ += matches;
    store64(p.data(), matches);
}

void
RemFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    // Slice a window out of the pre-generated scan corpus; cheaper
    // than generating text per packet and statistically identical.
    auto p = pkt.payload();
    const std::size_t off =
        rng.uniformInt(corpus_.size() - std::min(p.size(), corpus_.size()));
    const std::size_t n = std::min(p.size(), corpus_.size());
    std::memcpy(p.data(), corpus_.data() + off, n);
}

CryptoFunction::CryptoFunction()
    : n_(alg::groups::prime512()), g_(2), e_(65537)
{}

void
CryptoFunction::process(net::Packet &pkt, coherence::StateContext &)
{
    auto p = pkt.payload();
    const std::uint8_t op = p.empty() ? 0 : p[0] % 3;

    // Digest the signed prefix; all three ops key off it.
    const alg::Sha256Digest digest = alg::Sha256::hash(
        p.subspan(0, std::min(p.size(), kDigestBytes)));
    const alg::BigUint m = alg::BigUint::fromBytes(
        std::span<const std::uint8_t>(digest.data(), digest.size()));

    alg::BigUint result;
    switch (op) {
      case 0:
        // RSA-style: digest^e mod n.
        result = m.modexp(e_, n_);
        break;
      case 1: {
        // DH-style: g^x mod p with an ephemeral exponent derived
        // from the digest (truncated to the configured bits).
        const alg::BigUint x =
            m % (alg::BigUint(1) << kExponentBits);
        result = g_.modexp(x + alg::BigUint(1), n_);
        break;
      }
      default: {
        // DSA-style: r = (g^k mod p) and fold in the digest.
        const alg::BigUint k =
            (m >> 128) % (alg::BigUint(1) << kExponentBits);
        const alg::BigUint r = g_.modexp(k + alg::BigUint(2), n_);
        result = (r * m) % n_;
        break;
      }
    }

    const std::vector<std::uint8_t> bytes = result.toBytes();
    const std::size_t out = std::min<std::size_t>(bytes.size(), 64);
    if (p.size() >= 1 + out) {
        p[0] = op;
        std::memcpy(p.data() + 1, bytes.data(), out);
    }
}

void
CryptoFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    if (p.empty())
        return;
    p[0] = static_cast<std::uint8_t>(rng.uniformInt(3));
    // Message body: random session material.
    for (std::size_t i = 1; i < std::min<std::size_t>(p.size(), 128); ++i)
        p[i] = static_cast<std::uint8_t>(rng.next());
}

CompressFunction::CompressFunction()
    : corpus_(alg::makeSilesiaLike(1 << 20, kSeed))
{}

void
CompressFunction::process(net::Packet &pkt, coherence::StateContext &)
{
    auto p = pkt.payload();
    const std::vector<std::uint8_t> compressed =
        alg::deflateCompress(p, kMaxChain);
    bytesIn_ += p.size();
    bytesOut_ += compressed.size();

    store32(p.data(), static_cast<std::uint32_t>(p.size()));
    store32(p.data() + 4, static_cast<std::uint32_t>(compressed.size()));
    const std::size_t keep =
        std::min(compressed.size(), p.size() > 8 ? p.size() - 8 : 0);
    std::memcpy(p.data() + 8, compressed.data(), keep);
}

void
CompressFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    auto p = pkt.payload();
    const std::size_t n = std::min(p.size(), corpus_.size());
    const std::size_t off = rng.uniformInt(corpus_.size() - n + 1);
    std::memcpy(p.data(), corpus_.data() + off, n);
}

} // namespace halsim::funcs
