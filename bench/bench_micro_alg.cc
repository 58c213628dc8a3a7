/**
 * @file
 * Google-benchmark micro-benchmarks for the algorithm substrates and
 * hot simulator paths: Aho-Corasick scan rate, DEFLATE compression,
 * SHA-256, modexp, internet checksum (full vs incremental), event
 * queue throughput, and the coherence directory.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "alg/aho_corasick.hh"
#include "alg/bignum.hh"
#include "alg/corpus.hh"
#include "alg/deflate.hh"
#include "alg/fixed_map.hh"
#include "alg/sha256.hh"
#include "coherence/domain.hh"
#include "net/checksum.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace halsim;

namespace {

void
BM_AhoCorasickScan(benchmark::State &state)
{
    const auto rules = alg::makeRuleset(alg::RulesetKind::Teakettle,
                                        static_cast<std::size_t>(
                                            state.range(0)));
    alg::AhoCorasick ac(rules);
    const auto text = alg::makeScanStream(1 << 16, rules, 0.05, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(ac.countMatches(text));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_AhoCorasickScan)->Arg(100)->Arg(2500);

void
BM_DeflateCompress(benchmark::State &state)
{
    const auto data =
        alg::makeSilesiaLike(static_cast<std::size_t>(state.range(0)), 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(alg::deflateCompress(data, 16));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_DeflateCompress)->Arg(1458)->Arg(65536);

void
BM_DeflateRoundTrip(benchmark::State &state)
{
    const auto data = alg::makeSilesiaLike(16384, 6);
    for (auto _ : state) {
        const auto c = alg::deflateCompress(data, 16);
        benchmark::DoNotOptimize(alg::deflateDecompress(c));
    }
}
BENCHMARK(BM_DeflateRoundTrip);

void
BM_Sha256(benchmark::State &state)
{
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(state.range(0)), 0xA5);
    for (auto _ : state)
        benchmark::DoNotOptimize(alg::Sha256::hash(data));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1458)->Arg(65536);

void
BM_Modexp512(benchmark::State &state)
{
    Rng rng(9);
    const auto p = alg::groups::prime512();
    const auto base = alg::BigUint::randomBelow(p, rng);
    const auto exp = alg::BigUint::randomBits(
        static_cast<unsigned>(state.range(0)), rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(base.modexp(exp, p));
}
BENCHMARK(BM_Modexp512)->Arg(32)->Arg(512);

void
BM_ChecksumFull(benchmark::State &state)
{
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(state.range(0)), 0x3C);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            net::internetChecksum(data.data(), data.size()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_ChecksumFull)->Arg(20)->Arg(1458);

void
BM_ChecksumIncremental(benchmark::State &state)
{
    std::uint16_t hc = 0x1234;
    std::uint32_t v = 1;
    for (auto _ : state) {
        hc = net::checksumUpdate32(hc, v, v + 1);
        ++v;
        benchmark::DoNotOptimize(hc);
    }
}
BENCHMARK(BM_ChecksumIncremental);

void
BM_EventQueueChurn(benchmark::State &state)
{
    // Schedule/execute cycles measuring raw kernel throughput.
    for (auto _ : state) {
        EventQueue eq;
        int fired = 0;
        for (int i = 0; i < 1000; ++i)
            eq.scheduleFn([&fired] { ++fired; },
                          static_cast<Tick>(i * 13 % 997));
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueChurn);

void
BM_CoherenceAccess(benchmark::State &state)
{
    coherence::CoherenceDomain dom;
    Rng rng(11);
    for (auto _ : state) {
        const auto addr = rng.uniformInt(4096) * 64;
        const auto node = rng.chance(0.5) ? coherence::NodeId::Snic
                                          : coherence::NodeId::Host;
        benchmark::DoNotOptimize(dom.access(addr, node, rng.chance(0.3)));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoherenceAccess);

void
BM_FixedMapLookup(benchmark::State &state)
{
    alg::FixedMap<std::uint64_t, std::uint64_t> map;
    Rng rng(12);
    for (std::uint64_t i = 0; i < 10000; ++i)
        map.put(i, i * 7);
    std::uint64_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.find(k));
        k = (k + 37) % 20000;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FixedMapLookup);

} // namespace

BENCHMARK_MAIN();
