/**
 * @file
 * Coherence domain: MSI state machine latencies, single-writer
 * invariant under random access streams, and the StateContext
 * accounting stateful functions rely on.
 */

#include <gtest/gtest.h>

#include "coherence/domain.hh"
#include "sim/rng.hh"

using namespace halsim;
using namespace halsim::coherence;

namespace {

constexpr Tick kHit = CoherenceDomain::kLocalHit;
constexpr Tick kFetch = CoherenceDomain::kMemoryFetch;
constexpr Tick kTransfer = CoherenceDomain::kRemoteTransfer;

} // namespace

TEST(Coherence, ColdReadFetchesFromMemory)
{
    CoherenceDomain d;
    EXPECT_EQ(d.access(0x1000, NodeId::Snic, false), kFetch);
    EXPECT_EQ(d.stats().memoryFetches, 1u);
}

TEST(Coherence, RepeatReadHitsLocally)
{
    CoherenceDomain d;
    d.access(0x1000, NodeId::Snic, false);
    EXPECT_EQ(d.access(0x1000, NodeId::Snic, false), kHit);
    EXPECT_EQ(d.access(0x1040, NodeId::Snic, false), kFetch)
        << "adjacent line is a separate fetch";
    EXPECT_EQ(d.access(0x1008, NodeId::Snic, false), kHit)
        << "same 64-byte line hits";
}

TEST(Coherence, WriteAfterWriteIsLocal)
{
    CoherenceDomain d;
    EXPECT_EQ(d.access(0x2000, NodeId::Host, true), kFetch);
    EXPECT_EQ(d.access(0x2000, NodeId::Host, true), kHit);
}

TEST(Coherence, RemoteDirtyReadTransfers)
{
    CoherenceDomain d;
    d.access(0x3000, NodeId::Snic, true);   // SNIC owns dirty
    EXPECT_EQ(d.access(0x3000, NodeId::Host, false), kTransfer)
        << "dirty line must cross the UPI/CXL interconnect";
    // Now shared: both read locally.
    EXPECT_EQ(d.access(0x3000, NodeId::Host, false), kHit);
    EXPECT_EQ(d.access(0x3000, NodeId::Snic, false), kHit);
}

TEST(Coherence, WriteInvalidatesRemoteSharer)
{
    CoherenceDomain d;
    d.access(0x4000, NodeId::Snic, false);
    d.access(0x4000, NodeId::Host, false);
    EXPECT_EQ(d.access(0x4000, NodeId::Host, true), kTransfer)
        << "upgrading with a remote sharer costs an invalidation";
    EXPECT_EQ(d.stats().invalidations, 1u);
    // The SNIC's copy is gone: its next read transfers the dirty line.
    EXPECT_EQ(d.access(0x4000, NodeId::Snic, false), kTransfer);
}

TEST(Coherence, LocalUpgradeFromSharedIsCheap)
{
    CoherenceDomain d;
    d.access(0x5000, NodeId::Snic, false);
    EXPECT_EQ(d.access(0x5000, NodeId::Snic, true), kHit)
        << "S->M with no remote sharer is a local operation";
}

TEST(Coherence, PingPongWritesAlwaysTransfer)
{
    // The pathological stateful pattern: both nodes writing the same
    // counter. Every write after the first must cross the link.
    CoherenceDomain d;
    d.access(0x6000, NodeId::Snic, true);
    for (int i = 0; i < 10; ++i) {
        const NodeId n = i % 2 ? NodeId::Snic : NodeId::Host;
        EXPECT_EQ(d.access(0x6000, n, true), kTransfer) << "round " << i;
    }
    EXPECT_EQ(d.stats().remoteTransfers, 10u);
}

TEST(Coherence, SingleWriterInvariantUnderRandomChurn)
{
    CoherenceDomain d;
    Rng rng(42);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t addr = rng.uniformInt(64) * 64;
        const NodeId node = rng.chance(0.5) ? NodeId::Snic : NodeId::Host;
        d.access(addr, node, rng.chance(0.3));
    }
    EXPECT_TRUE(d.checkSingleWriterInvariant());
    EXPECT_EQ(d.stats().accesses, 100000u);
    EXPECT_EQ(d.stats().localHits + d.stats().memoryFetches +
                  d.stats().remoteTransfers,
              100000u)
        << "every access is exactly one of hit/fetch/transfer";
}

TEST(StateContext, ExposedLatencyIsMaxPlusResidual)
{
    CoherenceDomain d;
    StateContext ctx(&d, NodeId::Snic);
    ctx.touch(0x100, true);    // memory fetch
    ctx.touch(0x100, true);    // local hit
    // Out-of-order overlap: longest access (the fetch) + 15% of the
    // rest.
    EXPECT_EQ(ctx.latency(),
              kFetch +
                  static_cast<Tick>(0.15 * static_cast<double>(kHit)));
    EXPECT_EQ(ctx.accesses(), 2u);
    EXPECT_TRUE(ctx.coherent());
}

TEST(StateContext, NullDomainIsFree)
{
    StateContext ctx(nullptr, NodeId::Host);
    for (int i = 0; i < 100; ++i)
        ctx.touch(static_cast<std::uint64_t>(i), true);
    EXPECT_EQ(ctx.latency(), 0u);
    EXPECT_EQ(ctx.accesses(), 100u);
    EXPECT_FALSE(ctx.coherent());
}

TEST(Coherence, SkewedSharingIsMostlyLocal)
{
    // HAL's common case: the SNIC handles the low-rate steady state,
    // the host only bursts. With key-partitioned access the remote
    // traffic should stay a small fraction.
    CoherenceDomain d;
    Rng rng(7);
    for (int i = 0; i < 50000; ++i) {
        // 95% of accesses from the SNIC.
        const NodeId node =
            rng.chance(0.95) ? NodeId::Snic : NodeId::Host;
        const std::uint64_t addr = rng.uniformInt(1024) * 64;
        d.access(addr, node, true);
    }
    const auto &s = d.stats();
    EXPECT_LT(static_cast<double>(s.remoteTransfers) /
                  static_cast<double>(s.accesses),
              0.15);
}
