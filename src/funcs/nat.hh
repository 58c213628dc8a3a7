/**
 * @file
 * Network address translation over a preloaded translation table
 * (1 K or 10 K entries, Table IV). NAT operates on the real packet
 * headers: it looks up the flow by (source IP, source UDP port),
 * rewrites the destination address/port to the mapped internal
 * server, and patches the IPv4 header checksum incrementally — the
 * same datapath a hardware NAT performs.
 */

#ifndef HALSIM_FUNCS_NAT_HH
#define HALSIM_FUNCS_NAT_HH

#include <cstdint>

#include "alg/fixed_map.hh"
#include "funcs/function.hh"

namespace halsim::funcs {

/**
 * Stateless-table NAT (the table is fixed at setup, so cooperative
 * processing needs no coherence — the paper classifies NAT as
 * stateless).
 */
class NatFunction : public NetworkFunction
{
  public:
    /** Translation-table entries (1 K or 10 K in the paper). */
    static constexpr std::uint32_t kEntries = 10000;
    /** Internal server subnet the table maps flows into. */
    static constexpr net::Ipv4Addr kInternalBase{192, 168, 0, 0};

    NatFunction();

    FunctionId id() const override { return FunctionId::Nat; }
    bool stateful() const override { return false; }
    void process(net::Packet &pkt,
                 coherence::StateContext &state) override;
    void makeRequest(net::Packet &pkt, Rng &rng) override;

    /** Number of packets that missed the table (dropped by NAT). */
    std::uint64_t misses() const { return misses_; }

    /** Translation for a flow key (test hook). */
    struct Mapping
    {
        net::Ipv4Addr ip;
        std::uint16_t port;
    };
    const Mapping *lookup(std::uint32_t src_ip,
                          std::uint16_t src_port) const;

  private:
    static std::uint64_t
    flowKey(std::uint32_t ip, std::uint16_t port)
    {
        return (std::uint64_t{ip} << 16) | port;
    }

    alg::FixedMap<std::uint64_t, Mapping> table_;
    std::uint64_t misses_ = 0;
};

} // namespace halsim::funcs

#endif // HALSIM_FUNCS_NAT_HH
