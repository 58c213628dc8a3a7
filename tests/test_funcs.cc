/**
 * @file
 * Semantic correctness of the ten network functions: each parses its
 * request, computes a real answer, and writes a well-formed response.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "alg/corpus.hh"
#include "alg/sha256.hh"
#include "coherence/domain.hh"
#include "funcs/analytics.hh"
#include "funcs/content.hh"
#include "funcs/nat.hh"
#include "funcs/pipeline.hh"
#include "funcs/registry.hh"
#include "funcs/calibration.hh"
#include "funcs/stateful.hh"
#include "net/bytes.hh"
#include "sim/rng.hh"

using namespace halsim;
using namespace halsim::funcs;
using coherence::StateContext;
using net::load64;
using net::store16;
using net::store64;

namespace {

net::PacketPtr
blankPacket(std::size_t frame = net::kMtuFrameBytes)
{
    return net::makeUdpPacket(net::MacAddr::fromUint(1),
                              net::MacAddr::fromUint(2),
                              net::Ipv4Addr(10, 0, 0, 1),
                              net::Ipv4Addr(10, 0, 0, 2), 40000, 9000,
                              {}, frame);
}

StateContext
nullState()
{
    return StateContext(nullptr, coherence::NodeId::Snic);
}

} // namespace

TEST(Registry, NamesAndFactory)
{
    for (FunctionId id : allFunctions()) {
        auto fn = makeFunction(id);
        ASSERT_NE(fn, nullptr);
        EXPECT_EQ(fn->id(), id);
        EXPECT_STRNE(fn->name(), "?");
    }
    EXPECT_EQ(allFunctions().size(), 10u);
    EXPECT_EQ(tableVFunctions().size(), 6u);
    EXPECT_EQ(tableVPipelines().size(), 4u);
}

TEST(Registry, StatefulFlagsMatchTableIV)
{
    // Table IV marks KVS, Count, EMA (and compression's file stream)
    // as stateful.
    EXPECT_TRUE(makeFunction(FunctionId::Kvs)->stateful());
    EXPECT_TRUE(makeFunction(FunctionId::Count)->stateful());
    EXPECT_TRUE(makeFunction(FunctionId::Ema)->stateful());
    EXPECT_TRUE(makeFunction(FunctionId::Compress)->stateful());
    EXPECT_FALSE(makeFunction(FunctionId::Nat)->stateful());
    EXPECT_FALSE(makeFunction(FunctionId::Rem)->stateful());
    EXPECT_FALSE(makeFunction(FunctionId::Crypto)->stateful());
    EXPECT_FALSE(makeFunction(FunctionId::Knn)->stateful());
}

TEST(Kvs, PutThenGet)
{
    KvsFunction kvs;
    auto st = nullState();

    auto put = blankPacket();
    auto p = put->payload();
    p[0] = 1;   // PUT
    store64(p.data() + 1, 42);
    for (int i = 0; i < 32; ++i)
        p[9 + i] = static_cast<std::uint8_t>(i);
    kvs.process(*put, st);
    EXPECT_EQ(put->payload()[0], 0);

    auto get = blankPacket();
    p = get->payload();
    p[0] = 0;   // GET
    store64(p.data() + 1, 42);
    kvs.process(*get, st);
    EXPECT_EQ(get->payload()[0], 0);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(get->payload()[1 + i], i);
}

TEST(Kvs, GetMissingAndDoubleInsert)
{
    KvsFunction kvs;
    auto st = nullState();

    auto get = blankPacket();
    get->payload()[0] = 0;
    store64(get->payload().data() + 1, 999);
    kvs.process(*get, st);
    EXPECT_EQ(get->payload()[0], 1) << "missing key -> not found";

    auto ins = blankPacket();
    ins->payload()[0] = 2;
    store64(ins->payload().data() + 1, 7);
    kvs.process(*ins, st);
    EXPECT_EQ(ins->payload()[0], 0);

    auto ins2 = blankPacket();
    ins2->payload()[0] = 2;
    store64(ins2->payload().data() + 1, 7);
    kvs.process(*ins2, st);
    EXPECT_EQ(ins2->payload()[0], 2) << "second insert must fail";
}

TEST(Kvs, GeneratedRequestsGrowStore)
{
    KvsFunction kvs;
    auto st = nullState();
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        auto pkt = blankPacket();
        kvs.makeRequest(*pkt, rng);
        kvs.process(*pkt, st);
    }
    EXPECT_GT(kvs.storeSize(), 100u);
}

TEST(Count, CountsAreConserved)
{
    CountFunction count;
    auto st = nullState();
    Rng rng(2);
    std::uint64_t keys_sent = 0;
    for (int i = 0; i < 500; ++i) {
        auto pkt = blankPacket();
        count.makeRequest(*pkt, rng);
        keys_sent += pkt->payload()[0];
        count.process(*pkt, st);
    }
    EXPECT_EQ(count.totalCounted(), keys_sent)
        << "every submitted key must be counted exactly once";
}

TEST(Count, ResponseCarriesRunningCount)
{
    CountFunction count;
    auto st = nullState();
    auto pkt = blankPacket();
    auto p = pkt->payload();
    p[0] = 4;
    for (int i = 0; i < 4; ++i)
        store64(p.data() + 1 + 8 * i, 5);   // same key four times
    count.process(*pkt, st);
    // In-batch updates accumulate: counts 1, 2, 3, 4.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(load64(pkt->payload().data() + 1 + 8 * i), i + 1);
    EXPECT_EQ(count.countOf(5), 4u);
}

TEST(Ema, ConvergesTowardConstantInput)
{
    EmaFunction ema;
    auto st = nullState();
    for (int i = 0; i < 200; ++i) {
        auto pkt = blankPacket();
        auto p = pkt->payload();
        p[0] = 1;
        store64(p.data() + 1, 9);          // key
        store64(p.data() + 9, 1000);       // constant sample
        ema.process(*pkt, st);
    }
    EXPECT_NEAR(static_cast<double>(ema.emaOf(9)), 1000.0, 20.0);
}

TEST(Ema, FirstSampleInitializes)
{
    EmaFunction ema;
    auto st = nullState();
    auto pkt = blankPacket();
    auto p = pkt->payload();
    p[0] = 1;
    store64(p.data() + 1, 77);
    store64(p.data() + 9, 5000);
    ema.process(*pkt, st);
    EXPECT_EQ(ema.emaOf(77), 5000);
}

TEST(Nat, TranslatesKnownFlowAndPatchesChecksum)
{
    NatFunction nat;
    auto pkt = blankPacket();
    // Flow 5 from the preloaded table.
    pkt->ip().rewriteSrc(net::Ipv4Addr(10, 0, 0, 1));
    pkt->udp().setSrcPort(1024 + 5);
    const auto *m = nat.lookup(net::Ipv4Addr(10, 0, 0, 1).value, 1024 + 5);
    ASSERT_NE(m, nullptr);

    auto st = nullState();
    nat.process(*pkt, st);
    EXPECT_EQ(pkt->ip().dst(), m->ip);
    EXPECT_EQ(pkt->udp().dstPort(), m->port);
    EXPECT_TRUE(pkt->ip().checksumOk())
        << "NAT must keep the IP checksum valid via incremental update";
    EXPECT_EQ(pkt->payload()[0], 1);
    EXPECT_EQ(nat.misses(), 0u);
}

TEST(Nat, UnknownFlowCountsMiss)
{
    NatFunction nat;
    auto pkt = blankPacket();
    pkt->udp().setSrcPort(9);   // below the table's port base
    auto st = nullState();
    nat.process(*pkt, st);
    EXPECT_EQ(nat.misses(), 1u);
    EXPECT_EQ(pkt->payload()[0], 0);
}

TEST(Nat, GeneratedRequestsAlwaysHit)
{
    NatFunction nat;
    auto st = nullState();
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        auto pkt = blankPacket();
        nat.makeRequest(*pkt, rng);
        nat.process(*pkt, st);
    }
    EXPECT_EQ(nat.misses(), 0u)
        << "the workload generator must stay inside the NAT table";
}

TEST(Bm25, PicksHighestScoringDocument)
{
    Bm25Function bm25;
    auto st = nullState();
    Rng rng(4);
    for (int trial = 0; trial < 20; ++trial) {
        auto pkt = blankPacket();
        bm25.makeRequest(*pkt, rng);
        std::vector<std::uint16_t> terms;
        const unsigned n = pkt->payload()[0];
        for (unsigned i = 0; i < n; ++i)
            terms.push_back(
                net::load16(pkt->payload().data() + 1 + 2 * i));
        bm25.process(*pkt, st);
        const std::uint32_t winner =
            net::load32(pkt->payload().data());
        const double wscore = bm25.score(winner, terms);
        // Spot-check: no sampled doc may beat the winner.
        for (std::uint32_t d = 0; d < 1024; d += 97)
            EXPECT_LE(bm25.score(d, terms), wscore + 1e-9)
                << "doc " << d << " trial " << trial;
    }
}

TEST(Knn, ClassifiesCentroidsCorrectly)
{
    KnnFunction knn;
    // A query exactly at a class centroid must classify to it.
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(knn.classify(knn.centroid(c)), c);
}

TEST(Knn, GeneratedQueriesMostlyClassifyStably)
{
    KnnFunction knn;
    auto st = nullState();
    Rng rng(5);
    int agreements = 0;
    const int trials = 500;
    for (int i = 0; i < trials; ++i) {
        auto pkt = blankPacket();
        knn.makeRequest(*pkt, rng);
        std::uint8_t q[KnnFunction::kDims];
        std::memcpy(q, pkt->payload().data(), sizeof(q));
        knn.process(*pkt, st);
        agreements += pkt->payload()[0] == knn.classify(q);
    }
    EXPECT_EQ(agreements, trials)
        << "process() must agree with classify()";
}

TEST(Bayes, SelfConsistentAndBetterThanChance)
{
    BayesFunction bayes;
    auto st = nullState();
    Rng rng(6);
    // Queries are generated from a known class's Bernoulli model;
    // with 256 features the classifier should recover it nearly
    // always. We can't see the generating class directly, so check
    // determinism + spread instead.
    std::array<int, 4> histogram{};
    for (int i = 0; i < 400; ++i) {
        auto pkt = blankPacket();
        bayes.makeRequest(*pkt, rng);
        std::uint8_t bits[32];
        std::memcpy(bits, pkt->payload().data(), 32);
        bayes.process(*pkt, st);
        EXPECT_EQ(pkt->payload()[0], bayes.classify(bits));
        ++histogram[pkt->payload()[0] % 4];
    }
    // All four classes must appear (generator draws uniformly).
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(histogram[c], 40) << "class " << c;
}

TEST(Rem, CountsPlantedMatches)
{
    RemFunction rem;
    auto st = nullState();
    Rng rng(7);
    std::uint64_t matches = 0;
    for (int i = 0; i < 50; ++i) {
        auto pkt = blankPacket();
        rem.makeRequest(*pkt, rng);
        rem.process(*pkt, st);
        matches += load64(pkt->payload().data());
    }
    EXPECT_GT(matches, 0u);
    EXPECT_EQ(matches, rem.totalMatches());
}

TEST(Rem, SnortRulesetCleanTrafficHasNoMatches)
{
    RemFunction rem(alg::RulesetKind::SnortLiterals);
    // Background text with no planted hits, built against the same
    // ruleset the function compiled.
    const auto rules = alg::makeRuleset(alg::RulesetKind::SnortLiterals,
                                        RemFunction::kRules,
                                        RemFunction::kSeed);
    const auto clean = alg::makeScanStream(1 << 16, rules, 0.0, 9);
    auto st = nullState();
    for (std::size_t off = 0; off + 1500 <= clean.size(); off += 1500) {
        auto pkt = blankPacket();
        auto p = pkt->payload();
        std::memcpy(p.data(), clean.data() + off, p.size());
        rem.process(*pkt, st);
        EXPECT_EQ(load64(pkt->payload().data()), 0u);
    }
}

TEST(Crypto, DeterministicPerMessageAndOpDependent)
{
    CryptoFunction crypto;
    auto st = nullState();

    auto make = [&](std::uint8_t op) {
        auto pkt = blankPacket();
        auto p = pkt->payload();
        p[0] = op;
        for (int i = 1; i < 64; ++i)
            p[i] = static_cast<std::uint8_t>(i * 3);
        return pkt;
    };

    auto a1 = make(0), a2 = make(0), b = make(1), c = make(2);
    crypto.process(*a1, st);
    crypto.process(*a2, st);
    crypto.process(*b, st);
    crypto.process(*c, st);

    EXPECT_EQ(std::memcmp(a1->payload().data(), a2->payload().data(), 65),
              0)
        << "same op + message -> same signature";
    EXPECT_NE(std::memcmp(a1->payload().data() + 1,
                          b->payload().data() + 1, 64),
              0);
    EXPECT_NE(std::memcmp(b->payload().data() + 1,
                          c->payload().data() + 1, 64),
              0);
}

TEST(Crypto, RsaResultVerifiable)
{
    // The op-0 path computes digest^e mod n; recompute independently.
    CryptoFunction crypto;
    auto st = nullState();
    auto pkt = blankPacket(200);
    auto p = pkt->payload();
    p[0] = 0;
    for (std::size_t i = 1; i < p.size(); ++i)
        p[i] = static_cast<std::uint8_t>(i);

    std::vector<std::uint8_t> request(p.begin(), p.end());
    const auto digest = alg::Sha256::hash(request);
    const auto m = alg::BigUint::fromBytes(
        std::span<const std::uint8_t>(digest.data(), digest.size()));
    const auto expect = m.modexp(alg::BigUint(65537), crypto.modulus());

    crypto.process(*pkt, st);
    const auto bytes = expect.toBytes();
    EXPECT_EQ(std::memcmp(pkt->payload().data() + 1, bytes.data(),
                          std::min<std::size_t>(bytes.size(), 64)),
              0);
}

TEST(Compress, TracksRatioOnCompressibleTraffic)
{
    CompressFunction comp;
    auto st = nullState();
    Rng rng(10);
    for (int i = 0; i < 50; ++i) {
        auto pkt = blankPacket();
        comp.makeRequest(*pkt, rng);
        comp.process(*pkt, st);
    }
    ASSERT_GT(comp.bytesIn(), 0u);
    const double ratio = static_cast<double>(comp.bytesIn()) /
                         static_cast<double>(comp.bytesOut());
    EXPECT_GT(ratio, 1.5) << "Silesia-like payloads must compress";
}

TEST(Compress, ResponseHeaderIsConsistent)
{
    CompressFunction comp;
    auto st = nullState();
    Rng rng(11);
    auto pkt = blankPacket();
    comp.makeRequest(*pkt, rng);
    const std::size_t payload = pkt->payload().size();
    comp.process(*pkt, st);
    EXPECT_EQ(net::load32(pkt->payload().data()), payload);
    EXPECT_EQ(net::load32(pkt->payload().data() + 4), comp.bytesOut());
}

TEST(Pipeline, RunsBothStagesInOrder)
{
    // NAT + REM: NAT translates the header, REM scans the payload.
    auto pipe = makePipeline(FunctionId::Nat, FunctionId::Rem);
    EXPECT_FALSE(pipe->stateful());

    auto st = nullState();
    Rng rng(12);
    auto pkt = blankPacket();
    pipe->makeRequest(*pkt, rng);
    pipe->process(*pkt, st);
    // REM is last: payload leads with a match count (possibly 0),
    // and NAT ran: destination was rewritten into the internal range.
    EXPECT_EQ(pkt->ip().dst().value & 0xffff0000,
              net::Ipv4Addr(192, 168, 0, 0).value);
    EXPECT_TRUE(pkt->ip().checksumOk());
}

TEST(Pipeline, StatefulnessPropagates)
{
    EXPECT_TRUE(
        makePipeline(FunctionId::Count, FunctionId::Rem)->stateful());
    EXPECT_TRUE(
        makePipeline(FunctionId::Nat, FunctionId::Ema)->stateful());
}

TEST(Requests, ShortPayloadsStayInBounds)
{
    // The payload of a 64 B frame, and one byte short of each full
    // request: count 65, KVS 41, EMA 129, BM25 17, KNN 16, Bayes 32
    // and crypto 128 bytes.
    const std::size_t sizes[] = {
        net::kSmallFrameBytes - net::kFrameHeaderLen, 64, 40, 128, 16,
        15, 31, 127};
    constexpr std::size_t kGuard = 256;
    constexpr std::uint8_t kFill = 0xA5;
    std::vector<FunctionPtr> fns;
    for (FunctionId id : allFunctions())
        fns.push_back(makeFunction(id));
    for (const auto &[first, second] : tableVPipelines())
        fns.push_back(makePipeline(first, second));

    auto st = nullState();
    for (const auto &fn : fns) {
        Rng rng(7);
        for (std::size_t n : sizes) {
            SCOPED_TRACE(std::string(fn->name()) + ", payload " +
                         std::to_string(n));
            // Shrinking the payload keeps the buffer, so the guard
            // bytes sit right where a write past the payload lands.
            const std::vector<std::uint8_t> body(n + kGuard, kFill);
            auto pkt = net::makeUdpPacket(
                net::MacAddr::fromUint(1), net::MacAddr::fromUint(2),
                net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                40000, 9000, body);
            pkt->resizePayload(n);
            const std::uint8_t *guard = pkt->payload().data() + n;

            fn->makeRequest(*pkt, rng);
            const std::uint8_t batch = pkt->payload()[0];
            switch (fn->id()) {
              case FunctionId::Count:
                EXPECT_EQ(batch, std::min<std::size_t>(
                                     CountFunction::kBatch, (n - 1) / 8));
                break;
              case FunctionId::Ema:
                EXPECT_EQ(batch, std::min<std::size_t>(
                                     EmaFunction::kBatch, (n - 1) / 16));
                break;
              default:
                break;
            }
            EXPECT_TRUE(std::all_of(guard, guard + kGuard,
                                    [](std::uint8_t b) { return b == kFill; }))
                << "makeRequest wrote past the payload";

            fn->process(*pkt, st);
            EXPECT_TRUE(std::all_of(guard, guard + kGuard,
                                    [](std::uint8_t b) { return b == kFill; }))
                << "process wrote past the payload";
        }
    }
}

TEST(Calibration, ProfilesMatchPaperAnchors)
{
    using enum FunctionId;
    // Table V / Table II anchors.
    EXPECT_NEAR(profile(Platform::SnicBf2, Nat).max_tp_gbps, 41.0, 0.01);
    EXPECT_NEAR(profile(Platform::HostSkylake, Nat).max_tp_gbps, 89.2,
                0.01);
    EXPECT_NEAR(profile(Platform::SnicBf2, Count).max_tp_gbps, 58.4, 0.01);
    EXPECT_NEAR(profile(Platform::SnicBf2, Kvs).max_tp_gbps, 3.0, 0.01);
    EXPECT_NEAR(profile(Platform::SnicBf2, Bayes).max_tp_gbps, 0.1, 0.001);
    // REM accel capped at 50 Gbps (§III-A).
    EXPECT_EQ(profile(Platform::SnicBf2, Rem).unit, ExecUnit::Accel);
    EXPECT_NEAR(profile(Platform::SnicBf2, Rem).cap_gbps, 50.0, 0.01);
    // Host crypto/compression ride QAT (Table I).
    EXPECT_EQ(profile(Platform::HostSkylake, Crypto).unit,
              ExecUnit::Accel);
    EXPECT_EQ(profile(Platform::HostSkylake, Compress).unit,
              ExecUnit::Accel);
}

TEST(Calibration, ServiceTimeReproducesMaxThroughput)
{
    // 8 cores at the per-core MTU service time must hit max_tp.
    for (Platform p : {Platform::HostSkylake, Platform::SnicBf2}) {
        for (FunctionId f : allFunctions()) {
            const auto &prof = profile(p, f);
            if (prof.unit != ExecUnit::Cpu)
                continue;
            const Tick per_pkt = prof.serviceTicks(1500);
            const double tp =
                gbps(1500, per_pkt) * prof.ref_cores;
            EXPECT_NEAR(tp, prof.max_tp_gbps, prof.max_tp_gbps * 0.01)
                << platformName(p) << "/" << functionName(f);
        }
    }
}

TEST(Calibration, SmallPacketsCostRelativelyMore)
{
    // §III-A: the SNIC reaches line rate at MTU but only 40 Gbps at
    // 64 B. Per-byte cost must rise as frames shrink.
    const auto &fwd = profile(Platform::SnicBf2, FunctionId::DpdkFwd);
    const double tp64 = gbps(64, fwd.serviceTicks(64)) * fwd.ref_cores;
    const double tp1500 =
        gbps(1500, fwd.serviceTicks(1500)) * fwd.ref_cores;
    EXPECT_NEAR(tp1500, 100.0, 1.0);
    EXPECT_NEAR(tp64, 40.0, 4.0);
}

TEST(Calibration, RemRulesetVariants)
{
    // §III-A: host wins on teakettle, loses 19x on snort_literals.
    const auto &tea =
        remProfile(Platform::HostSkylake, alg::RulesetKind::Teakettle);
    const auto &lite = remProfile(Platform::HostSkylake,
                                  alg::RulesetKind::SnortLiterals);
    const auto &snic =
        remProfile(Platform::SnicBf2, alg::RulesetKind::SnortLiterals);
    EXPECT_GT(tea.max_tp_gbps, snic.max_tp_gbps);
    EXPECT_NEAR(snic.max_tp_gbps / lite.max_tp_gbps, 19.0, 3.0);
}

TEST(Calibration, PkaRatiosInPaperRange)
{
    std::size_t n = 0;
    const auto *rows = pkaCalib(&n);
    ASSERT_EQ(n, 3u);
    for (std::size_t i = 0; i < n; ++i) {
        const double ratio = rows[i].host_ops_per_s /
                             rows[i].snic_ops_per_s;
        EXPECT_GE(ratio, 24.0) << rows[i].op;
        EXPECT_LE(ratio, 115.0 + 1e-9) << rows[i].op;
        const double lat_cut = 1.0 - static_cast<double>(
            rows[i].host_latency) / rows[i].snic_latency;
        EXPECT_GE(lat_cut, 0.95) << rows[i].op;
        EXPECT_LE(lat_cut, 0.99) << rows[i].op;
    }
}

// --- Table IV configurations -------------------------------------------
//
// Table IV publishes two configurations per function (batch 4/8, NAT
// 1 K/10 K entries, BM25 2 K/4 K terms, KNN sets of 8/16, Bayes
// 128/256 features, REM teakettle/snort_literals). The simulator
// runs one per function, the constant its class names, and only REM
// still chooses its ruleset; each suite checks the configuration a
// run actually builds.

class CountBatchTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CountBatchTest, ConservationHoldsForBatchSize)
{
    CountFunction count;
    auto st = nullState();
    Rng rng(GetParam());
    std::uint64_t keys = 0;
    for (int i = 0; i < 300; ++i) {
        auto pkt = blankPacket();
        count.makeRequest(*pkt, rng);
        EXPECT_EQ(pkt->payload()[0], GetParam());
        keys += pkt->payload()[0];
        count.process(*pkt, st);
    }
    EXPECT_EQ(count.totalCounted(), keys);
    EXPECT_EQ(st.accesses(), keys)
        << "one coherent access per counted key";
}

INSTANTIATE_TEST_SUITE_P(PaperBatches, CountBatchTest,
                         ::testing::Values(CountFunction::kBatch));

class EmaBatchTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EmaBatchTest, ConvergesForBatchSize)
{
    EmaFunction ema;
    auto st = nullState();
    // Feed the same key a constant sample through full batches.
    for (int round = 0; round < 400; ++round) {
        auto pkt = blankPacket();
        auto p = pkt->payload();
        p[0] = static_cast<std::uint8_t>(GetParam());
        for (unsigned i = 0; i < GetParam(); ++i) {
            net::store64(p.data() + 1 + 16 * i, 3);
            net::store64(p.data() + 9 + 16 * i, 777000);
        }
        ema.process(*pkt, st);
    }
    EXPECT_NEAR(static_cast<double>(ema.emaOf(3)), 777000.0, 7800.0);
}

INSTANTIATE_TEST_SUITE_P(PaperBatches, EmaBatchTest,
                         ::testing::Values(EmaFunction::kBatch));

class NatEntriesTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(NatEntriesTest, AllGeneratedFlowsTranslate)
{
    NatFunction nat;
    auto st = nullState();
    Rng rng(GetParam());
    for (int i = 0; i < 3000; ++i) {
        auto pkt = blankPacket();
        nat.makeRequest(*pkt, rng);
        nat.process(*pkt, st);
        EXPECT_TRUE(pkt->ip().checksumOk());
    }
    EXPECT_EQ(nat.misses(), 0u);
}

TEST_P(NatEntriesTest, DistinctFlowsGetDistinctMappings)
{
    NatFunction nat;
    const auto *a = nat.lookup(net::Ipv4Addr(10, 0, 0, 1).value, 1024);
    const auto *b = nat.lookup(net::Ipv4Addr(10, 0, 0, 1).value, 1025);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(a->ip == b->ip && a->port == b->port);
    // The last preloaded flow is in the table; one past it is not.
    const auto flow = [&nat](std::uint32_t i) {
        return nat.lookup(net::Ipv4Addr(10, 0, 0, 1).value + i / 60000,
                          static_cast<std::uint16_t>(1024 + i % 60000));
    };
    EXPECT_NE(flow(GetParam() - 1), nullptr);
    EXPECT_EQ(flow(GetParam()), nullptr);
}

INSTANTIATE_TEST_SUITE_P(PaperTables, NatEntriesTest,
                         ::testing::Values(NatFunction::kEntries));

class Bm25VocabTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(Bm25VocabTest, WinnerIsOptimalAmongSampledDocs)
{
    Bm25Function bm25;
    auto st = nullState();
    Rng rng(GetParam());
    for (int trial = 0; trial < 8; ++trial) {
        auto pkt = blankPacket();
        bm25.makeRequest(*pkt, rng);
        std::vector<std::uint16_t> terms;
        for (unsigned i = 0; i < pkt->payload()[0]; ++i) {
            terms.push_back(
                net::load16(pkt->payload().data() + 1 + 2 * i));
            EXPECT_LT(terms.back(), GetParam());
        }
        bm25.process(*pkt, st);
        const std::uint32_t winner = net::load32(pkt->payload().data());
        const double best = bm25.score(winner, terms);
        for (std::uint32_t d = 0; d < 1024; d += 61)
            EXPECT_LE(bm25.score(d, terms), best + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(PaperVocabs, Bm25VocabTest,
                         ::testing::Values(Bm25Function::kVocabulary));

class KnnSetTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(KnnSetTest, CentroidsClassifyToThemselves)
{
    KnnFunction knn;
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(knn.classify(knn.centroid(c)), c)
            << "set size " << GetParam();
}

TEST_P(KnnSetTest, NoisyQueriesMostlyRecoverTheirClass)
{
    KnnFunction knn;
    Rng rng(GetParam() * 7);
    int correct = 0;
    const int trials = 300;
    for (int i = 0; i < trials; ++i) {
        const unsigned c = static_cast<unsigned>(rng.uniformInt(4));
        std::uint8_t q[KnnFunction::kDims];
        for (unsigned d = 0; d < KnnFunction::kDims; ++d) {
            const int v = knn.centroid(c)[d] +
                          static_cast<int>(rng.normal(0.0, 5.0));
            q[d] = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
        }
        correct += knn.classify(q) == c;
    }
    EXPECT_GT(correct, trials * 8 / 10) << "set size " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperSets, KnnSetTest,
                         ::testing::Values(KnnFunction::kSetSize));

class BayesFeatureTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BayesFeatureTest, DeterministicAndUsesAllClasses)
{
    BayesFunction bayes;
    auto st = nullState();
    Rng rng(GetParam() * 3);
    std::array<int, 4> hist{};
    for (int i = 0; i < 300; ++i) {
        auto pkt = blankPacket();
        bayes.makeRequest(*pkt, rng);
        std::uint8_t bits[32];
        std::memcpy(bits, pkt->payload().data(), (GetParam() + 7) / 8);
        bayes.process(*pkt, st);
        EXPECT_EQ(pkt->payload()[0], bayes.classify(bits));
        ++hist[pkt->payload()[0] % 4];
    }
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(hist[c], 20) << "features " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperFeatures, BayesFeatureTest,
                         ::testing::Values(BayesFunction::kFeatures));

class RemRulesetTest : public ::testing::TestWithParam<alg::RulesetKind>
{
};

TEST_P(RemRulesetTest, CountsMatchStandaloneAutomaton)
{
    RemFunction rem(GetParam());
    auto st = nullState();
    Rng rng(17);
    std::uint64_t reported = 0;
    std::uint64_t recomputed = 0;
    for (int i = 0; i < 40; ++i) {
        auto pkt = blankPacket();
        rem.makeRequest(*pkt, rng);
        std::vector<std::uint8_t> payload(pkt->payload().begin(),
                                          pkt->payload().end());
        rem.process(*pkt, st);
        reported += net::load64(pkt->payload().data());
        recomputed += rem.matcher().countMatches(payload);
    }
    EXPECT_EQ(reported, recomputed);
}

INSTANTIATE_TEST_SUITE_P(PaperRulesets, RemRulesetTest,
                         ::testing::Values(alg::RulesetKind::Teakettle,
                                           alg::RulesetKind::SnortLiterals));

class KvsMixTest
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(KvsMixTest, MixObeysConfiguredFractions)
{
    KvsFunction kvs;
    auto st = nullState();
    Rng rng(23);
    int gets = 0, puts = 0, inserts = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        auto pkt = blankPacket();
        kvs.makeRequest(*pkt, rng);
        switch (pkt->payload()[0]) {
          case 0: ++gets; break;
          case 1: ++puts; break;
          default: ++inserts; break;
        }
        kvs.process(*pkt, st);
    }
    EXPECT_NEAR(static_cast<double>(gets) / n, GetParam().first, 0.03);
    EXPECT_NEAR(static_cast<double>(puts) / n, GetParam().second, 0.03);
    EXPECT_GT(kvs.storeSize(), 0u);
    // Only PUTs and INSERTs create keys.
    EXPECT_LE(kvs.storeSize(), static_cast<std::size_t>(puts + inserts));
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, KvsMixTest,
    ::testing::Values(std::pair{KvsFunction::kGetFraction,
                                KvsFunction::kPutFraction}));
