/**
 * @file
 * The stateful functions of Table IV: KVS (read/write/insert on a
 * key-value store), Count (frequency counting, batch 4/8), and EMA
 * (exponential moving average, batch 4/8). Each keeps real state and
 * routes every state access through the coherence domain.
 */

#ifndef HALSIM_FUNCS_STATEFUL_HH
#define HALSIM_FUNCS_STATEFUL_HH

#include <array>
#include <cstdint>

#include "alg/fixed_map.hh"
#include "funcs/function.hh"

namespace halsim::funcs {

/**
 * Key-value store with read, write, and insert operations (SILT-like
 * usage, Table IV). Values are fixed 32-byte blobs.
 *
 * Request payload: [op:1][key:8][value:32]
 *   op 0 = GET, 1 = PUT (overwrite), 2 = INSERT (fail if present)
 * Response payload: [status:1][value:32]
 *   status 0 = ok, 1 = not found, 2 = already exists
 */
class KvsFunction : public NetworkFunction
{
  public:
    /** Distinct keys generated. */
    static constexpr std::uint64_t kKeySpace = 100000;
    /** Request mix: GETs, PUTs, and the remainder inserts. */
    static constexpr double kGetFraction = 0.5;
    static constexpr double kPutFraction = 0.3;

    FunctionId id() const override { return FunctionId::Kvs; }
    bool stateful() const override { return true; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    std::size_t storeSize() const { return store_.size(); }

    /** Request bytes: op, key, value. A shorter payload is malformed. */
    static constexpr std::size_t kRequestBytes = 1 + 8 + 32;

  private:
    using Value = std::array<std::uint8_t, 32>;

    alg::FixedMap<std::uint64_t, Value> store_{1 << 12};
};

/**
 * Frequency counting over keys carried in batches (Metron-style NFV
 * counter, Table IV).
 *
 * Request payload: [batch:1][key:8] x batch   (batch 4 or 8)
 * Response payload: [batch:1][count:8] x batch (counts after update)
 */
class CountFunction : public NetworkFunction
{
  public:
    /** Keys per generated request (4 or 8 in the paper). */
    static constexpr unsigned kBatch = 8;
    static constexpr std::uint64_t kKeySpace = 65536;

    FunctionId id() const override { return FunctionId::Count; }
    bool stateful() const override { return true; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    /** Current count for @p key (test hook; no coherence charge). */
    std::uint64_t countOf(std::uint64_t key) const;

    /** Sum of all counters (conservation check). */
    std::uint64_t totalCounted() const;

  private:
    alg::FixedMap<std::uint64_t, std::uint64_t> counts_{1 << 12};
};

/**
 * Per-key exponential moving average over batched samples.
 *
 * Request payload: [batch:1]([key:8][value_milli:8]) x batch
 * Values are fixed-point milli-units to keep the wire format
 * architecture-independent.
 * Response payload: [batch:1][ema_milli:8] x batch
 */
class EmaFunction : public NetworkFunction
{
  public:
    /** (key, sample) pairs per generated request. */
    static constexpr unsigned kBatch = 8;
    static constexpr std::uint64_t kKeySpace = 4096;
    /** Smoothing factor numerator over 1000 (alpha = 0.125). */
    static constexpr std::uint32_t kAlphaMilli = 125;

    FunctionId id() const override { return FunctionId::Ema; }
    bool stateful() const override { return true; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    /** Current EMA (milli-units) for @p key; 0 when never seen. */
    std::int64_t emaOf(std::uint64_t key) const;

  private:
    alg::FixedMap<std::uint64_t, std::int64_t> ema_{1 << 12};
};

} // namespace halsim::funcs

#endif // HALSIM_FUNCS_STATEFUL_HH
