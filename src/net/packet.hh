/**
 * @file
 * The Packet: a real Ethernet/IPv4/UDP frame plus simulation metadata.
 *
 * Every packet in the simulator carries genuine wire bytes. The HAL
 * datapath (traffic director/merger) rewrites addresses and fixes
 * checksums on those bytes exactly as the FPGA would, and the network
 * functions parse their requests out of the UDP payload, so packet
 * handling is functionally real even though timing is modeled.
 */

#ifndef HALSIM_NET_PACKET_HH
#define HALSIM_NET_PACKET_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/addr.hh"
#include "net/bytes.hh"
#include "net/checksum.hh"
#include "sim/types.hh"

namespace halsim::net {

/** Fixed header sizes for the frame layout we use everywhere. */
inline constexpr std::size_t kEthHeaderLen = 14;
inline constexpr std::size_t kIpv4HeaderLen = 20;   //!< no options
inline constexpr std::size_t kUdpHeaderLen = 8;
inline constexpr std::size_t kFrameHeaderLen =
    kEthHeaderLen + kIpv4HeaderLen + kUdpHeaderLen;

/** EtherType for IPv4. */
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
/** IPv4 protocol number for UDP. */
inline constexpr std::uint8_t kIpProtoUdp = 17;

/** Dominant datacenter packet sizes used throughout the paper. */
inline constexpr std::size_t kMtuFrameBytes = 1500;
inline constexpr std::size_t kSmallFrameBytes = 64;
/** Largest frame whose IPv4 total length (16 bits) can describe it. */
inline constexpr std::size_t kMaxFrameBytes = kEthHeaderLen + 65535;

/** Where a packet was ultimately processed (for stats breakdowns). */
enum class Processor : std::uint8_t
{
    None,
    SnicCpu,
    SnicAccel,
    HostCpu,
    HostAccel,
};

/** Human-readable processor name. */
const char *processorName(Processor p);

/**
 * Mutable view over the Ethernet header of a frame buffer.
 */
class EthView
{
  public:
    explicit EthView(std::uint8_t *base) : b_(base) {}

    MacAddr
    dst() const
    {
        MacAddr m;
        for (int i = 0; i < 6; ++i)
            m.bytes[i] = b_[i];
        return m;
    }

    MacAddr
    src() const
    {
        MacAddr m;
        for (int i = 0; i < 6; ++i)
            m.bytes[i] = b_[6 + i];
        return m;
    }

    std::uint16_t etherType() const { return load16(b_ + 12); }

    void
    setDst(const MacAddr &m)
    {
        for (int i = 0; i < 6; ++i)
            b_[i] = m.bytes[i];
    }

    void
    setSrc(const MacAddr &m)
    {
        for (int i = 0; i < 6; ++i)
            b_[6 + i] = m.bytes[i];
    }

    void setEtherType(std::uint16_t t) { store16(b_ + 12, t); }

  private:
    std::uint8_t *b_;
};

/**
 * Mutable view over a 20-byte (option-less) IPv4 header.
 */
class Ipv4View
{
  public:
    explicit Ipv4View(std::uint8_t *base) : b_(base) {}

    std::uint8_t versionIhl() const { return b_[0]; }
    std::uint16_t totalLength() const { return load16(b_ + 2); }
    std::uint8_t ttl() const { return b_[8]; }
    std::uint8_t protocol() const { return b_[9]; }
    std::uint16_t headerChecksum() const { return load16(b_ + 10); }
    Ipv4Addr src() const { return Ipv4Addr(load32(b_ + 12)); }
    Ipv4Addr dst() const { return Ipv4Addr(load32(b_ + 16)); }

    void setVersionIhl(std::uint8_t v) { b_[0] = v; }
    void setTotalLength(std::uint16_t v) { store16(b_ + 2, v); }
    void setTtl(std::uint8_t v) { b_[8] = v; }
    void setProtocol(std::uint8_t v) { b_[9] = v; }
    void setHeaderChecksum(std::uint16_t v) { store16(b_ + 10, v); }
    void setSrcRaw(Ipv4Addr a) { store32(b_ + 12, a.value); }
    void setDstRaw(Ipv4Addr a) { store32(b_ + 16, a.value); }

    /** Recompute and store the header checksum from scratch. */
    void
    fillChecksum()
    {
        setHeaderChecksum(0);
        setHeaderChecksum(internetChecksum(b_, kIpv4HeaderLen));
    }

    /** True when the stored checksum verifies (sum == 0xffff). */
    bool
    checksumOk() const
    {
        return onesComplementSum(b_, kIpv4HeaderLen) == 0xffff;
    }

    /**
     * Rewrite the source address, patching the checksum
     * incrementally per RFC 1624 — the traffic-merger datapath.
     */
    void
    rewriteSrc(Ipv4Addr a)
    {
        setHeaderChecksum(
            checksumUpdate32(headerChecksum(), src().value, a.value));
        setSrcRaw(a);
    }

    /**
     * Rewrite the destination address with an incremental checksum
     * patch — the traffic-director datapath.
     */
    void
    rewriteDst(Ipv4Addr a)
    {
        setHeaderChecksum(
            checksumUpdate32(headerChecksum(), dst().value, a.value));
        setDstRaw(a);
    }

  private:
    std::uint8_t *b_;
};

/**
 * Mutable view over a UDP header.
 */
class UdpView
{
  public:
    explicit UdpView(std::uint8_t *base) : b_(base) {}

    std::uint16_t srcPort() const { return load16(b_); }
    std::uint16_t dstPort() const { return load16(b_ + 2); }
    std::uint16_t length() const { return load16(b_ + 4); }
    std::uint16_t checksum() const { return load16(b_ + 6); }

    void setSrcPort(std::uint16_t v) { store16(b_, v); }
    void setDstPort(std::uint16_t v) { store16(b_ + 2, v); }
    void setLength(std::uint16_t v) { store16(b_ + 4, v); }
    void setChecksum(std::uint16_t v) { store16(b_ + 6, v); }

  private:
    std::uint8_t *b_;
};

/**
 * A frame in flight, with the metadata the measurement harness needs.
 */
class Packet
{
  public:
    /** Construct from raw frame bytes (takes ownership). */
    explicit Packet(std::vector<std::uint8_t> frame)
        : data_(std::move(frame))
    {}

    /** Teardown retires the frame buffer to this thread's pool. */
    ~Packet();

    Packet(const Packet &) = delete;
    Packet &operator=(const Packet &) = delete;

    std::size_t size() const { return data_.size(); }
    std::uint8_t *data() { return data_.data(); }
    const std::uint8_t *data() const { return data_.data(); }

    EthView eth() { return EthView(data_.data()); }
    Ipv4View ip() { return Ipv4View(data_.data() + kEthHeaderLen); }

    UdpView
    udp()
    {
        return UdpView(data_.data() + kEthHeaderLen + kIpv4HeaderLen);
    }

    /** UDP payload bytes (request/response body). */
    std::span<std::uint8_t>
    payload()
    {
        return {data_.data() + kFrameHeaderLen,
                data_.size() - kFrameHeaderLen};
    }

    std::span<const std::uint8_t>
    payload() const
    {
        return {data_.data() + kFrameHeaderLen,
                data_.size() - kFrameHeaderLen};
    }

    /**
     * Replace the payload, adjusting IP/UDP lengths and the IP
     * checksum. Used when a function's response differs in size from
     * the request.
     */
    void resizePayload(std::size_t n);

    // --- Simulation metadata (not wire bytes) -------------------------

    std::uint64_t id = 0;            //!< unique per generated request
    Tick clientTx = 0;               //!< when the client sent it
    Tick serverRx = 0;               //!< when the server NIC got it
    Processor processedBy = Processor::None;
    bool isResponse = false;
    bool directedToHost = false;     //!< HLB rewrote this one
    std::uint32_t flowHash = 0;      //!< RSS queue selection input

    /** Reply-to addressing recorded at generation time, so response
     *  construction does not depend on how a function mangled the
     *  request headers. */
    MacAddr clientMac;
    Ipv4Addr clientIp;
    std::uint16_t clientPort = 0;

  private:
    std::vector<std::uint8_t> data_;
};

using PacketPtr = std::unique_ptr<Packet>;

/**
 * Build a UDP frame with the given addressing and payload, all
 * checksums filled in. @p frame_bytes pads/truncates the final frame
 * to the requested wire size (>= headers + payload is padded with
 * zeros; smaller is an error).
 */
PacketPtr makeUdpPacket(const MacAddr &src_mac, const MacAddr &dst_mac,
                        Ipv4Addr src_ip, Ipv4Addr dst_ip,
                        std::uint16_t src_port, std::uint16_t dst_port,
                        std::span<const std::uint8_t> payload,
                        std::size_t frame_bytes = 0);

/**
 * One-stop receiver interface: anything that can accept a packet at
 * the current simulated time (switch ports, queues, sinks).
 */
class PacketSink
{
  public:
    virtual ~PacketSink() = default;

    /** Deliver @p pkt; implementations may drop (and count) it. */
    virtual void accept(PacketPtr pkt) = 0;
};

} // namespace halsim::net

#endif // HALSIM_NET_PACKET_HH
