#include "net/packet.hh"

#include <cassert>
#include <cstring>

#include "net/packet_pool.hh"

namespace halsim::net {

Packet::~Packet()
{
    PacketPool::local().release(std::move(data_));
}

const char *
processorName(Processor p)
{
    switch (p) {
      case Processor::None: return "none";
      case Processor::SnicCpu: return "snic-cpu";
      case Processor::SnicAccel: return "snic-accel";
      case Processor::HostCpu: return "host-cpu";
      case Processor::HostAccel: return "host-accel";
    }
    return "?";
}

void
Packet::resizePayload(std::size_t n)
{
    data_.resize(kFrameHeaderLen + n);
    const auto ip_len =
        static_cast<std::uint16_t>(kIpv4HeaderLen + kUdpHeaderLen + n);
    ip().setTotalLength(ip_len);
    ip().fillChecksum();
    udp().setLength(static_cast<std::uint16_t>(kUdpHeaderLen + n));
}

PacketPtr
makeUdpPacket(const MacAddr &src_mac, const MacAddr &dst_mac,
              Ipv4Addr src_ip, Ipv4Addr dst_ip,
              std::uint16_t src_port, std::uint16_t dst_port,
              std::span<const std::uint8_t> payload,
              std::size_t frame_bytes)
{
    std::size_t total = kFrameHeaderLen + payload.size();
    if (frame_bytes > total)
        total = frame_bytes;          // zero-pad to the wire size
    assert(frame_bytes == 0 || frame_bytes >= kFrameHeaderLen);

    // Exact final size up front — a recycled buffer with enough
    // capacity makes this allocation-free.
    std::vector<std::uint8_t> frame = PacketPool::local().acquire(total);
    if (!payload.empty())
        std::memcpy(frame.data() + kFrameHeaderLen, payload.data(),
                    payload.size());

    auto pkt = std::make_unique<Packet>(std::move(frame));

    EthView eth = pkt->eth();
    eth.setDst(dst_mac);
    eth.setSrc(src_mac);
    eth.setEtherType(kEtherTypeIpv4);

    const std::size_t ip_payload = total - kEthHeaderLen;
    Ipv4View ip = pkt->ip();
    ip.setVersionIhl(0x45);
    ip.setTotalLength(static_cast<std::uint16_t>(ip_payload));
    ip.setTtl(64);
    ip.setProtocol(kIpProtoUdp);
    ip.setSrcRaw(src_ip);
    ip.setDstRaw(dst_ip);
    ip.fillChecksum();

    UdpView udp = pkt->udp();
    udp.setSrcPort(src_port);
    udp.setDstPort(dst_port);
    udp.setLength(static_cast<std::uint16_t>(ip_payload - kIpv4HeaderLen));
    udp.setChecksum(0);   // optional in IPv4; the paper's NAT skips it too

    return pkt;
}

} // namespace halsim::net
