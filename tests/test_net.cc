/**
 * @file
 * Network substrate: checksums (full vs incremental), frame codecs,
 * the address-rewrite datapaths HAL relies on, link timing (and the
 * fixed hops folded into links), timed channel ordering, and the
 * traffic generators' statistical properties (Fig. 8 anchors).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "net/addr.hh"
#include "net/checksum.hh"
#include "net/client.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "net/timed_channel.hh"
#include "net/traffic.hh"
#include "nic/eswitch.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace halsim;
using namespace halsim::net;

TEST(Addr, Formatting)
{
    EXPECT_EQ(MacAddr(0xde, 0xad, 0xbe, 0xef, 0x00, 0x01).toString(),
              "de:ad:be:ef:00:01");
    EXPECT_EQ(Ipv4Addr(10, 1, 2, 3).toString(), "10.1.2.3");
    EXPECT_EQ(MacAddr::fromUint(0x112233445566).toUint(),
              0x112233445566u);
}

TEST(Checksum, KnownVector)
{
    // Classic RFC 1071 worked example.
    const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03,
                                 0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(onesComplementSum(data, sizeof(data)), 0xddf2);
    EXPECT_EQ(internetChecksum(data, sizeof(data)),
              static_cast<std::uint16_t>(~0xddf2));
}

TEST(Checksum, OddLengthPads)
{
    const std::uint8_t data[] = {0xab, 0xcd, 0xef};
    // 0xabcd + 0xef00 = 0x19acd -> fold -> 0x9ace.
    EXPECT_EQ(onesComplementSum(data, sizeof(data)), 0x9ace);
}

namespace {

/** The original byte-wise RFC 1071 loop, kept as the reference the
 *  word-at-a-time implementation must match bit for bit. */
std::uint16_t
onesComplementSumBytewise(const std::uint8_t *data, std::size_t len)
{
    std::uint32_t sum = 0;
    std::size_t i = 0;
    for (; i + 1 < len; i += 2)
        sum += (std::uint32_t{data[i]} << 8) | data[i + 1];
    if (i < len)
        sum += std::uint32_t{data[i]} << 8;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(sum);
}

} // namespace

TEST(Checksum, WordAtATimeMatchesBytewise)
{
    Rng rng(0xC45);
    for (int round = 0; round < 200; ++round) {
        // Every length 0..64 plus assorted larger odd/even sizes
        // covers all 8/4-byte-block and tail-parity combinations.
        const std::size_t len =
            round < 65 ? static_cast<std::size_t>(round)
                       : 65 + (rng.next() % 1500);
        std::vector<std::uint8_t> buf(len);
        for (auto &b : buf)
            b = static_cast<std::uint8_t>(rng.next());
        ASSERT_EQ(onesComplementSum(buf.data(), len),
                  onesComplementSumBytewise(buf.data(), len))
            << "len=" << len;
    }
    // All-ones input exercises maximal end-around carries.
    std::vector<std::uint8_t> ones(4096, 0xff);
    EXPECT_EQ(onesComplementSum(ones.data(), ones.size()),
              onesComplementSumBytewise(ones.data(), ones.size()));
    EXPECT_EQ(onesComplementSum(ones.data(), 4095),
              onesComplementSumBytewise(ones.data(), 4095));
}

TEST(Checksum, IncrementalMatchesFullRecompute)
{
    Rng rng(1);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint8_t hdr[20];
        for (auto &b : hdr)
            b = static_cast<std::uint8_t>(rng.next());
        // Zero the checksum field, compute, store.
        hdr[10] = hdr[11] = 0;
        const std::uint16_t cks = internetChecksum(hdr, sizeof(hdr));
        hdr[10] = static_cast<std::uint8_t>(cks >> 8);
        hdr[11] = static_cast<std::uint8_t>(cks);

        // Mutate the 32-bit word at offset 16 (destination address).
        const std::uint32_t oldv = load32(hdr + 16);
        const std::uint32_t newv = static_cast<std::uint32_t>(rng.next());
        const std::uint16_t patched = checksumUpdate32(cks, oldv, newv);

        store32(hdr + 16, newv);
        hdr[10] = hdr[11] = 0;
        const std::uint16_t full = internetChecksum(hdr, sizeof(hdr));
        EXPECT_EQ(patched, full) << "trial " << trial;
    }
}

TEST(Packet, BuildAndParse)
{
    const std::vector<std::uint8_t> body = {'p', 'i', 'n', 'g'};
    auto pkt = makeUdpPacket(MacAddr::fromUint(1), MacAddr::fromUint(2),
                             Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                             1111, 2222, body, kMtuFrameBytes);
    EXPECT_EQ(pkt->size(), kMtuFrameBytes);
    EXPECT_EQ(pkt->eth().etherType(), kEtherTypeIpv4);
    EXPECT_EQ(pkt->ip().protocol(), kIpProtoUdp);
    EXPECT_EQ(pkt->ip().src(), Ipv4Addr(10, 0, 0, 1));
    EXPECT_EQ(pkt->ip().dst(), Ipv4Addr(10, 0, 0, 2));
    EXPECT_TRUE(pkt->ip().checksumOk());
    EXPECT_EQ(pkt->udp().srcPort(), 1111);
    EXPECT_EQ(pkt->udp().dstPort(), 2222);
    EXPECT_EQ(std::memcmp(pkt->payload().data(), "ping", 4), 0);
    // Padded payload region extends to the MTU.
    EXPECT_EQ(pkt->payload().size(), kMtuFrameBytes - kFrameHeaderLen);
}

TEST(Packet, RewriteDstKeepsChecksumValid)
{
    auto pkt = makeUdpPacket(MacAddr::fromUint(1), MacAddr::fromUint(2),
                             Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                             1, 2, {}, 128);
    ASSERT_TRUE(pkt->ip().checksumOk());
    pkt->ip().rewriteDst(Ipv4Addr(192, 168, 7, 9));
    EXPECT_EQ(pkt->ip().dst(), Ipv4Addr(192, 168, 7, 9));
    EXPECT_TRUE(pkt->ip().checksumOk())
        << "incremental rewrite must keep the header checksum valid";
}

TEST(Packet, RewriteSrcKeepsChecksumValid)
{
    auto pkt = makeUdpPacket(MacAddr::fromUint(1), MacAddr::fromUint(2),
                             Ipv4Addr(172, 16, 0, 1), Ipv4Addr(10, 0, 0, 2),
                             1, 2, {}, 256);
    pkt->ip().rewriteSrc(Ipv4Addr(10, 9, 8, 7));
    EXPECT_EQ(pkt->ip().src(), Ipv4Addr(10, 9, 8, 7));
    EXPECT_TRUE(pkt->ip().checksumOk());
}

TEST(Packet, ResizePayloadFixesLengths)
{
    const std::vector<std::uint8_t> body = {'a', 'b', 'c'};
    auto pkt = makeUdpPacket(MacAddr::fromUint(1), MacAddr::fromUint(2),
                             Ipv4Addr(1, 2, 3, 4), Ipv4Addr(5, 6, 7, 8),
                             1, 2, body);
    pkt->resizePayload(100);
    EXPECT_EQ(pkt->size(), kFrameHeaderLen + 100);
    EXPECT_EQ(pkt->ip().totalLength(),
              kIpv4HeaderLen + kUdpHeaderLen + 100);
    EXPECT_EQ(pkt->udp().length(), kUdpHeaderLen + 100);
    EXPECT_TRUE(pkt->ip().checksumOk());
}

namespace {

/** Captures delivered packets with their arrival ticks. */
struct CaptureSink : PacketSink
{
    explicit CaptureSink(EventQueue &eq) : eq(eq) {}

    void
    accept(PacketPtr pkt) override
    {
        arrivals.push_back(eq.now());
        packets.push_back(std::move(pkt));
    }

    EventQueue &eq;
    std::vector<Tick> arrivals;
    std::vector<PacketPtr> packets;
};

PacketPtr
testFrame(std::size_t bytes)
{
    return makeUdpPacket(MacAddr::fromUint(1), MacAddr::fromUint(2),
                         Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2), 1, 2,
                         {}, bytes);
}

} // namespace

TEST(Link, SerializationPlusPropagation)
{
    EventQueue eq;
    CaptureSink sink(eq);
    Link link(eq, {.rate_gbps = 100.0, .propagation = 500 * kNs}, sink);
    link.send(testFrame(1500));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    // 120 ns serialization + 500 ns propagation.
    EXPECT_EQ(sink.arrivals[0], 620 * kNs);
}

TEST(Link, BackToBackContention)
{
    EventQueue eq;
    CaptureSink sink(eq);
    Link link(eq, {.rate_gbps = 100.0, .propagation = 0}, sink);
    link.send(testFrame(1500));
    link.send(testFrame(1500));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    EXPECT_EQ(sink.arrivals[0], 120 * kNs);
    EXPECT_EQ(sink.arrivals[1], 240 * kNs)
        << "second frame must wait for the first to serialize";
}

TEST(Link, TailDropsWhenSaturated)
{
    EventQueue eq;
    CaptureSink sink(eq);
    Link link(eq, {.rate_gbps = 1.0, .propagation = 0, .max_queue = 4},
              sink);
    for (int i = 0; i < 10; ++i)
        link.send(testFrame(1500));
    eq.run();
    EXPECT_EQ(sink.arrivals.size(), 4u);
    EXPECT_EQ(link.drops(), 6u);
}

// ---- Fixed hops folded into a link ------------------------------------

namespace {

/** One offered frame of a seeded load. */
struct Offer
{
    Tick at;
    std::size_t bytes;
    bool upstream;   //!< arrives through an upstream channel hop
};

/** Delivery log and losses of one link topology under a load. */
struct FoldRun
{
    std::vector<std::pair<Tick, std::uint64_t>> log;   //!< (tick, id)
    std::uint64_t drops = 0;
};

/** Records (tick, packet id) per delivery. */
struct TickLog : PacketSink
{
    explicit TickLog(EventQueue &eq) : eq(eq) {}

    void
    accept(PacketPtr pkt) override
    {
        log.emplace_back(eq.now(), pkt->id);
    }

    EventQueue &eq;
    std::vector<std::pair<Tick, std::uint64_t>> log;
};

enum class Topology
{
    LinkThenDelay,     //!< Link(p) -> FixedDelay(d)
    FoldedIngress,     //!< Link(p) with hop_after = d
    DelayThenLink,     //!< FixedDelay(d) -> Link(p)
    FoldedEgress,      //!< Link(p) with hop_before = d
};

// A 100 ns grid (8 Gbps: one byte per ns) puts many wire ends on the
// very tick of a later send, so the same-tick rule of the Tx-FIFO
// bound is exercised, not just its strict cases.
constexpr Tick kGrid = 100 * kNs;
constexpr Tick kProp = 5 * kGrid;
constexpr Tick kHop = 4 * kGrid;
// Longer than any frame's serialization plus propagation, so a send
// from the upstream hop can run under a key reserved before the
// frame whose wire ends on its tick was even sent.
constexpr Tick kUpstream = 9 * kGrid;
constexpr std::uint32_t kMaxQueue = 6;

/**
 * Random sizes and gaps, mostly on the grid, same-tick sends, and
 * bursts that overfill max_queue. Half the frames come through an upstream
 * channel, so some sends run in events keyed long before their tick.
 */
std::vector<Offer>
seededOffers(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Offer> offers;
    Tick t = 0;
    for (int i = 0; i < 3000; ++i) {
        if (rng.uniformInt(4) != 0)
            t += rng.uniformInt(16) * kGrid;   // zero gap: same tick
        const int burst = rng.uniformInt(20) == 0 ? 2 * kMaxQueue : 1;
        for (int b = 0; b < burst; ++b) {
            // Mostly on the grid; one frame in eight is any size.
            const std::size_t bytes = rng.uniformInt(8) == 0
                                          ? 64 + rng.uniformInt(400)
                                          : (1 + rng.uniformInt(4)) * 100;
            offers.push_back(Offer{t, bytes, rng.uniformInt(2) == 0});
        }
    }
    return offers;
}

FoldRun
runTopology(Topology topo, const std::vector<Offer> &offers)
{
    EventQueue eq;
    TickLog sink(eq);
    Link::Config cfg{.rate_gbps = 8.0, .propagation = kProp,
                     .max_queue = kMaxQueue};
    std::unique_ptr<nic::FixedDelay> after, before;
    std::unique_ptr<Link> link;
    PacketSink *entry = nullptr;
    switch (topo) {
      case Topology::LinkThenDelay:
        after = std::make_unique<nic::FixedDelay>(eq, kHop, sink);
        link = std::make_unique<Link>(eq, cfg, *after);
        entry = link.get();
        break;
      case Topology::FoldedIngress:
        cfg.hop_after = kHop;
        link = std::make_unique<Link>(eq, cfg, sink);
        entry = link.get();
        break;
      case Topology::DelayThenLink:
        link = std::make_unique<Link>(eq, cfg, sink);
        before = std::make_unique<nic::FixedDelay>(eq, kHop, *link);
        entry = before.get();
        break;
      case Topology::FoldedEgress:
        cfg.hop_before = kHop;
        link = std::make_unique<Link>(eq, cfg, sink);
        entry = link.get();
        break;
    }
    nic::FixedDelay upstream(eq, kUpstream, *entry);

    // Direct frames are sent by an event that schedules itself from
    // one offer tick to the next, a few frames per event; upstream
    // frames enter the upstream hop kUpstream before their tick.
    std::size_t next = 0;
    CallbackEvent sender;
    sender.setCallback([&] {
        const Tick now = eq.now();
        for (; next < offers.size() && offers[next].at == now; ++next) {
            PacketPtr pkt = testFrame(offers[next].bytes);
            pkt->id = next;
            if (offers[next].upstream)
                upstream.accept(std::move(pkt));
            else
                entry->accept(std::move(pkt));
        }
        if (next < offers.size())
            eq.schedule(&sender, offers[next].at);
    });
    eq.schedule(&sender, 0);
    eq.run();
    return FoldRun{std::move(sink.log), link->drops()};
}

} // namespace

TEST(Link, FoldedHopsMatchSeparateDelayElements)
{
    // A fixed hop behind the wire is more propagation; one in front
    // of the link commutes with its FIFO. Either way every frame must
    // arrive on the same tick and the Tx-FIFO bound must drop exactly
    // the same frames as the two-element chain it replaces.
    for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const std::vector<Offer> offers = seededOffers(seed);
        const FoldRun ingress = runTopology(Topology::LinkThenDelay, offers);
        const FoldRun egress = runTopology(Topology::DelayThenLink, offers);
        // Bursts overfill the FIFO, yet most frames get through.
        EXPECT_GT(ingress.drops, 0u);
        EXPECT_GT(egress.drops, 0u);
        EXPECT_GT(ingress.log.size(), offers.size() / 2);
        EXPECT_GT(egress.log.size(), offers.size() / 2);

        const FoldRun foldedIn = runTopology(Topology::FoldedIngress, offers);
        EXPECT_EQ(foldedIn.log, ingress.log);
        EXPECT_EQ(foldedIn.drops, ingress.drops);

        const FoldRun foldedOut = runTopology(Topology::FoldedEgress, offers);
        EXPECT_EQ(foldedOut.log, egress.log);
        EXPECT_EQ(foldedOut.drops, egress.drops);
    }
}

// ---- TimedChannel ---------------------------------------------------

namespace {

/** Frame tagged through its request id, so deliveries can be logged. */
PacketPtr
taggedFrame(std::uint64_t tag)
{
    PacketPtr pkt = testFrame(64);
    pkt->id = tag;
    return pkt;
}

/** Logs each delivery's tag and tick; an optional hook runs after. */
struct ChannelLog : PacketSink
{
    explicit ChannelLog(EventQueue &eq) : eq(eq) {}

    void
    accept(PacketPtr pkt) override
    {
        order.push_back(static_cast<int>(pkt->id));
        ticks.push_back(eq.now());
        if (onDeliver)
            onDeliver(*pkt);
    }

    EventQueue &eq;
    std::vector<int> order;
    std::vector<Tick> ticks;
    std::function<void(const Packet &)> onDeliver;
};

} // namespace

TEST(TimedChannel, SameTickEntriesFollowReservationOrder)
{
    // Each push reserves its key at the call site, so channel entries
    // interleave with one-shots scheduled for the same tick exactly
    // as individually scheduled events would.
    EventQueue eq;
    ChannelLog log(eq);
    TimedChannel chan(eq, log);
    eq.scheduleFn([&log] { log.order.push_back(100); }, 50);
    chan.push(50, taggedFrame(1));
    eq.scheduleFn([&log] { log.order.push_back(101); }, 50);
    chan.push(50, taggedFrame(2));
    eq.scheduleFn([&log] { log.order.push_back(102); }, 50);
    eq.run();
    EXPECT_EQ(log.order, (std::vector<int>{100, 1, 101, 2, 102}));
    EXPECT_EQ(eq.now(), Tick{50});
}

TEST(TimedChannel, PushFromDeliveryArmsOnceAndKeepsFifo)
{
    // Deliveries push more work into their own channel: into a
    // non-empty channel (behind an entry at the same tick) and into
    // an empty one. Every entry must cost exactly one executed event
    // — a double arm would fire the head twice.
    EventQueue eq;
    ChannelLog log(eq);
    TimedChannel chan(eq, log);
    log.onDeliver = [&](const Packet &pkt) {
        if (pkt.id == 1)
            chan.push(20, taggedFrame(3)); // behind pending entry 2
        else if (pkt.id == 3)
            chan.push(30, taggedFrame(4)); // channel is empty now
    };
    chan.push(10, taggedFrame(1));
    chan.push(20, taggedFrame(2));
    eq.run();
    EXPECT_EQ(log.order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(log.ticks, (std::vector<Tick>{10, 20, 20, 30}));
    EXPECT_EQ(eq.executed(), 4u);
    EXPECT_EQ(chan.pending(), 0u);
    EXPECT_FALSE(chan.scheduled());
}

TEST(TimedChannel, DestructorFreesPendingPackets)
{
    EventQueue eq;
    ChannelLog log(eq);
    PacketPool &pool = PacketPool::local();
    pool.clear();
    {
        TimedChannel chan(eq, log);
        for (std::uint64_t i = 0; i < 3; ++i)
            chan.push(100 + i, taggedFrame(i));
        EXPECT_EQ(chan.pending(), 3u);
        EXPECT_EQ(pool.pooled(), 0u);
    }
    // Each frame buffer went back to the pool, and the armed head
    // left the queue with the channel.
    EXPECT_EQ(pool.pooled(), 3u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_TRUE(log.order.empty());
}

TEST(Traffic, ConstantRateSpacing)
{
    EventQueue eq;
    CaptureSink sink(eq);
    TrafficGenerator::Config cfg;
    cfg.frame_bytes = 1500;
    TrafficGenerator gen(eq, cfg, std::make_unique<ConstantRate>(12.0),
                         sink);
    gen.start(1 * kMs);
    eq.run();
    // 12 Gbps, 1500 B frames -> 1 us apart -> ~1000 frames in 1 ms.
    EXPECT_NEAR(static_cast<double>(gen.sentFrames()), 1000.0, 2.0);
    ASSERT_GE(sink.arrivals.size(), 2u);
    EXPECT_EQ(sink.arrivals[1] - sink.arrivals[0], 1 * kUs);
}

TEST(Traffic, PacketsCarryMetadataAndValidFrames)
{
    EventQueue eq;
    CaptureSink sink(eq);
    TrafficGenerator::Config cfg;
    cfg.frame_bytes = 256;
    TrafficGenerator gen(eq, cfg, std::make_unique<ConstantRate>(10.0),
                         sink);
    gen.setPayloadFn([](Packet &p) { p.payload()[0] = 0x7e; });
    gen.start(100 * kUs);
    eq.run();
    ASSERT_GT(sink.packets.size(), 10u);
    std::uint64_t prev = 0;
    for (auto &p : sink.packets) {
        EXPECT_GT(p->id, prev);
        prev = p->id;
        EXPECT_TRUE(p->ip().checksumOk());
        EXPECT_EQ(p->payload()[0], 0x7e);
    }
}

TEST(Traffic, LognormalTruncatedMeansMatchPaper)
{
    // Fig. 8: web/cache/Hadoop average 1.6 / 5.2 / 10.9 Gbps. Our
    // truncated-at-line-rate processes must reproduce those averages
    // (the generator analytics, not a simulation run).
    const struct
    {
        TraceKind kind;
        double expect;
        double tol;
    } cases[] = {
        {TraceKind::Web, 1.6, 0.5},
        {TraceKind::Cache, 5.2, 1.5},
        {TraceKind::Hadoop, 10.9, 2.5},
    };
    for (const auto &c : cases) {
        auto proc = makeTrace(c.kind);
        EXPECT_NEAR(proc->meanGbps(), c.expect, c.tol)
            << traceName(c.kind);

        // Empirical mean over many samples agrees with the analytic.
        Rng rng(123);
        Accumulator acc;
        for (int i = 0; i < 200000; ++i)
            acc.sample(proc->sample(rng));
        EXPECT_NEAR(acc.mean(), proc->meanGbps(),
                    0.15 * proc->meanGbps() + 0.1)
            << traceName(c.kind);
    }
}

TEST(Traffic, RateResamplingProducesBursts)
{
    EventQueue eq;
    CaptureSink sink(eq);
    TrafficGenerator::Config cfg;
    cfg.resample_epoch = 100 * kUs;
    cfg.seed = 77;
    TrafficGenerator gen(eq, cfg, makeTrace(TraceKind::Hadoop), sink);
    gen.start(20 * kMs);
    eq.run();
    // Hadoop's sigma = 6.56 means epochs alternate between near-idle
    // and line rate; the offered-rate accumulator must show both.
    EXPECT_GT(gen.offeredRate().max(), 50.0);
    EXPECT_LT(gen.offeredRate().min(), 1.0);
}

TEST(Client, MeasuresLatencyAndBreakdown)
{
    EventQueue eq;
    Client client(eq);
    auto deliver = [&](Tick tx, Tick rx, Processor by) {
        eq.scheduleFn(
            [&client, tx, by] {
                auto pkt = testFrame(1500);
                pkt->clientTx = tx;
                pkt->processedBy = by;
                client.accept(std::move(pkt));
            },
            rx);
    };
    deliver(0, 10 * kUs, Processor::SnicCpu);
    deliver(5 * kUs, 25 * kUs, Processor::HostCpu);
    eq.run();
    EXPECT_EQ(client.responses(), 2u);
    EXPECT_EQ(client.responsesFrom(Processor::SnicCpu), 1u);
    EXPECT_EQ(client.responsesFrom(Processor::HostCpu), 1u);
    EXPECT_NEAR(client.meanUs(), 15.0, 0.5);
}
