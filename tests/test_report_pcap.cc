/**
 * @file
 * pcap round trips, including a PcapTap on a live simulated edge.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "net/pcap.hh"
#include "net/traffic.hh"

using namespace halsim;
using namespace halsim::net;

namespace {

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

} // namespace

TEST(Pcap, WriteReadRoundTrip)
{
    const std::string path = tmpPath("roundtrip.pcap");
    {
        PcapWriter w(path);
        for (int i = 0; i < 5; ++i) {
            auto pkt = makeUdpPacket(
                MacAddr::fromUint(1), MacAddr::fromUint(2),
                Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 1000,
                2000, {}, 64 + static_cast<std::size_t>(i) * 100);
            w.record(*pkt, static_cast<Tick>(i) * 123 * kUs);
        }
        EXPECT_EQ(w.frames(), 5u);
    }
    const auto records = readPcap(path);
    ASSERT_EQ(records.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(records[i].bytes.size(),
                  64u + static_cast<std::size_t>(i) * 100);
        EXPECT_EQ(records[i].timestamp,
                  static_cast<Tick>(i) * 123 * kUs);
        // Frames must still parse as the packets we wrote.
        Packet parsed(records[i].bytes);
        EXPECT_EQ(parsed.ip().src(), Ipv4Addr(10, 0, 0, 1));
        EXPECT_TRUE(parsed.ip().checksumOk());
    }
    std::remove(path.c_str());
}

TEST(Pcap, RejectsGarbage)
{
    const std::string path = tmpPath("garbage.pcap");
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a capture file";
    }
    EXPECT_THROW(readPcap(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Pcap, TapRecordsLiveTraffic)
{
    const std::string path = tmpPath("tap.pcap");
    EventQueue eq;

    struct Null : PacketSink
    {
        void accept(PacketPtr) override {}
    } sink;

    {
        PcapTap tap(eq, path, sink);
        TrafficGenerator::Config gc;
        gc.frame_bytes = 256;
        TrafficGenerator gen(eq, gc,
                             std::make_unique<ConstantRate>(10.0), tap);
        gen.start(1 * kMs);
        eq.run();
        EXPECT_GT(tap.writer().frames(), 40u);
    }
    const auto records = readPcap(path);
    EXPECT_GT(records.size(), 40u);
    // Timestamps must be monotone.
    for (std::size_t i = 1; i < records.size(); ++i)
        EXPECT_GE(records[i].timestamp, records[i - 1].timestamp);
    std::remove(path.c_str());
}
