#include "funcs/nat.hh"

namespace halsim::funcs {

NatFunction::NatFunction() : table_(kEntries * 2)
{
    // Preload the translation table: flows are (client base IP,
    // one of kEntries source ports) -> distinct internal servers.
    for (std::uint32_t i = 0; i < kEntries; ++i) {
        const auto port = static_cast<std::uint16_t>(1024 + i % 60000);
        const std::uint32_t ip =
            net::Ipv4Addr(10, 0, 0, 1).value + i / 60000;
        Mapping m;
        m.ip = net::Ipv4Addr(kInternalBase.value + 1 + i % 65534);
        m.port = static_cast<std::uint16_t>(2000 + i % 50000);
        table_.put(flowKey(ip, port), m);
    }
}

void
NatFunction::process(net::Packet &pkt, coherence::StateContext &)
{
    const std::uint32_t src_ip = pkt.ip().src().value;
    const std::uint16_t src_port = pkt.udp().srcPort();
    const Mapping *m = table_.find(flowKey(src_ip, src_port));
    auto p = pkt.payload();
    if (m == nullptr) {
        ++misses_;
        if (!p.empty())
            p[0] = 0;   // mark untranslated
        return;
    }
    // DNAT: rewrite the destination to the mapped internal server,
    // fixing the IP header checksum incrementally (RFC 1624) just as
    // the hardware datapath would.
    pkt.ip().rewriteDst(m->ip);
    pkt.udp().setDstPort(m->port);
    if (!p.empty())
        p[0] = 1;   // mark translated
}

void
NatFunction::makeRequest(net::Packet &pkt, Rng &rng)
{
    // Spread requests across the configured flow table: vary the
    // source port (and IP beyond 60 K entries) like the paper's
    // packet generator does.
    const std::uint32_t i =
        static_cast<std::uint32_t>(rng.uniformInt(kEntries));
    pkt.ip().rewriteSrc(
        net::Ipv4Addr(net::Ipv4Addr(10, 0, 0, 1).value + i / 60000));
    pkt.udp().setSrcPort(static_cast<std::uint16_t>(1024 + i % 60000));
}

const NatFunction::Mapping *
NatFunction::lookup(std::uint32_t src_ip, std::uint16_t src_port) const
{
    return table_.find(flowKey(src_ip, src_port));
}

} // namespace halsim::funcs
