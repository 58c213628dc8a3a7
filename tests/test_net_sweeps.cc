/**
 * @file
 * Parameterized property sweeps over the network substrate: link
 * timing across rates and frame sizes, generator rate accuracy, and
 * histogram quantile accuracy across bin densities. Also the sweep
 * harness itself: input order, argv parsing, the bench phase helpers
 * and the artifact writer's failure contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/sweep.hh"
#include "funcs/function.hh"
#include "net/link.hh"
#include "net/traffic.hh"
#include "sim/stats.hh"

using namespace halsim;
using namespace halsim::net;

namespace {

struct CountSink : PacketSink
{
    explicit CountSink(EventQueue &eq) : eq(eq) {}

    void
    accept(PacketPtr pkt) override
    {
        ++frames;
        bytes += pkt->size();
        last_arrival = eq.now();
    }

    EventQueue &eq;
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    Tick last_arrival = 0;
};

} // namespace

/** Link serialization must equal bytes/rate for any (rate, size). */
class LinkTimingSweep
    : public ::testing::TestWithParam<std::tuple<double, int>>
{
};

TEST_P(LinkTimingSweep, SerializationExact)
{
    const auto [rate, size] = GetParam();
    EventQueue eq;
    CountSink sink(eq);
    Link link(eq, {.rate_gbps = rate, .propagation = 0, .max_queue = 64,
                   .name = "t"},
              sink);
    link.send(makeUdpPacket(MacAddr::fromUint(1), MacAddr::fromUint(2),
                            Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                            1, 2, {}, static_cast<std::size_t>(size)));
    eq.run();
    ASSERT_EQ(sink.frames, 1u);
    EXPECT_EQ(sink.last_arrival,
              transferTicks(static_cast<std::uint64_t>(size), rate));
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndSizes, LinkTimingSweep,
    ::testing::Combine(::testing::Values(1.0, 10.0, 25.0, 100.0, 200.0),
                       ::testing::Values(64, 256, 1500)));

/** The generator must hit its configured rate within 1%. */
class GeneratorRateSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(GeneratorRateSweep, OfferedRateAccurate)
{
    const double rate = GetParam();
    EventQueue eq;
    CountSink sink(eq);
    TrafficGenerator::Config cfg;
    TrafficGenerator gen(eq, cfg, std::make_unique<ConstantRate>(rate),
                         sink);
    const Tick dur = 20 * kMs;
    gen.start(dur);
    eq.run();
    EXPECT_NEAR(gbps(sink.bytes, dur), rate, rate * 0.01 + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, GeneratorRateSweep,
                         ::testing::Values(0.5, 2.0, 10.0, 41.0, 99.0));

/** Quantile error must shrink with bin density. */
class HistogramDensitySweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HistogramDensitySweep, P99WithinBinResolution)
{
    const unsigned bins = GetParam();
    Histogram h(1.0, 1e9, bins);
    Rng rng(bins);
    std::vector<double> all;
    for (int i = 0; i < 20000; ++i) {
        const double v = std::exp(rng.normal(8.0, 2.0));
        h.sample(v);
        all.push_back(v);
    }
    std::sort(all.begin(), all.end());
    const double exact = all[static_cast<std::size_t>(0.99 * 19999)];
    // One bin spans a factor of 10^(1/bins); allow two bins of error.
    const double tolerance = std::pow(10.0, 2.0 / bins);
    EXPECT_LT(h.p99() / exact, tolerance);
    EXPECT_GT(h.p99() / exact, 1.0 / tolerance);
}

INSTANTIATE_TEST_SUITE_P(Densities, HistogramDensitySweep,
                         ::testing::Values(16u, 32u, 64u, 128u));

/** Trace processes never exceed the line rate after truncation. */
class TraceCapSweep : public ::testing::TestWithParam<TraceKind>
{
};

TEST_P(TraceCapSweep, SamplesRespectLineRate)
{
    auto proc = makeTrace(GetParam(), 100.0);
    Rng rng(5);
    for (int i = 0; i < 50000; ++i) {
        const double r = proc->sample(rng);
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 100.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllTraces, TraceCapSweep,
                         ::testing::Values(TraceKind::Web,
                                           TraceKind::Cache,
                                           TraceKind::Hadoop));

/**
 * The parallel sweep harness must return per-point results in input
 * order regardless of worker count, and each result must match its
 * point (delivered tracks the offered rate at these easy loads).
 */
class HarnessThreadSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HarnessThreadSweep, ResultsInInputOrder)
{
    const unsigned threads = GetParam();
    const double rates[] = {2.0, 5.0, 10.0, 15.0};
    std::vector<core::SweepPoint> points;
    for (double r : rates) {
        core::SweepPoint p;
        p.cfg.mode = core::Mode::SnicOnly;
        p.rate_gbps = r;
        p.warmup = 2 * kMs;
        p.measure = 10 * kMs;
        points.push_back(std::move(p));
    }
    core::SweepOptions opts;
    opts.threads = threads;
    const auto results = core::runSweep(points, opts);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_NEAR(results[i].offered_gbps, rates[i],
                    rates[i] * 0.02 + 0.05);
        EXPECT_NEAR(results[i].delivered_gbps, rates[i],
                    rates[i] * 0.05 + 0.1);
    }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, HarnessThreadSweep,
                         ::testing::Values(1u, 2u, 4u));

// ---- parseThreadsValue / parseSweepArgs ---------------------------

TEST(ParseThreads, AcceptsPositiveCountsAndAll)
{
    std::string err;
    EXPECT_EQ(core::parseThreadsValue("1", &err), 1u);
    EXPECT_EQ(core::parseThreadsValue("8", &err), 8u);
    EXPECT_EQ(core::parseThreadsValue("4096", &err), 4096u);
    // "all" maps to the SweepOptions 0 sentinel (all hardware threads).
    EXPECT_EQ(core::parseThreadsValue("all", &err), 0u);
}

TEST(ParseThreads, RejectsMalformedValues)
{
    for (const char *bad : {"", "-3", "-0", "0", "abc", "4x", "x4",
                            "2.5", "8 ", "0x8", "99999999"}) {
        std::string err;
        EXPECT_EQ(core::parseThreadsValue(bad, &err), std::nullopt)
            << "'" << bad << "' should be rejected";
        EXPECT_FALSE(err.empty()) << "'" << bad
                                  << "' should explain the rejection";
    }
}

TEST(ParseThreads, ZeroPointsAtAllSpelling)
{
    std::string err;
    EXPECT_EQ(core::parseThreadsValue("0", &err), std::nullopt);
    EXPECT_NE(err.find("all"), std::string::npos)
        << "error should mention the 'all' spelling: " << err;
}

TEST(ParseSweepArgsDeathTest, MalformedThreadsExitsWithDiagnostic)
{
    const char *cases[][2] = {{"--threads", "-3"},
                              {"--threads", "0"},
                              {"--threads", "fast"}};
    for (const auto &c : cases) {
        char prog[] = "bench";
        char flag[16], val[16];
        std::snprintf(flag, sizeof(flag), "%s", c[0]);
        std::snprintf(val, sizeof(val), "%s", c[1]);
        char *argv[] = {prog, flag, val, nullptr};
        EXPECT_EXIT(core::parseSweepArgs(3, argv, "bench"),
                    ::testing::ExitedWithCode(2), "--threads")
            << "value '" << c[1] << "'";
    }
}

TEST(ParseSweepArgsDeathTest, UnknownFlagPrintsUsage)
{
    char prog[] = "bench";
    char flag[] = "--frobnicate";
    char *argv[] = {prog, flag, nullptr};
    EXPECT_EXIT(core::parseSweepArgs(2, argv, "bench"),
                ::testing::ExitedWithCode(2), "usage");
}

TEST(ParseSweepArgs, WellFormedFlagsParse)
{
    char prog[] = "bench";
    char t[] = "--threads";
    char tv[] = "3";
    char j[] = "--json";
    char jv[] = "/tmp/out.json";
    char l[] = "--slo-p99";
    char lv[] = "300";
    char *argv[] = {prog, t, tv, j, jv, l, lv, nullptr};
    const core::SweepOptions opts =
        core::parseSweepArgs(7, argv, "bench_x");
    EXPECT_EQ(opts.threads, 3u);
    EXPECT_EQ(opts.json_path, "/tmp/out.json");
    EXPECT_EQ(opts.bench_name, "bench_x");
    EXPECT_EQ(opts.slo_p99_us, 300.0);
}

TEST(ParseSweepArgs, ThreadsAllMeansAllHardwareThreads)
{
    char prog[] = "bench";
    char t[] = "--threads";
    char tv[] = "all";
    char *argv[] = {prog, t, tv, nullptr};
    const core::SweepOptions opts =
        core::parseSweepArgs(3, argv, "bench_x");
    EXPECT_EQ(opts.threads, 0u); // runSweep resolves 0 to all cores
}

// ---- bench phases and the artifact writer ----------------------------

TEST(BenchPhases, SaturateCarriesEveryOptionButArtifactPaths)
{
    core::SweepOptions opts;
    opts.threads = 2;
    opts.governor = true;
    opts.slo_p99_us = 500.0;
    opts.fr_armed = 3;
    opts.json_path = "r.json";
    opts.stats_path = "s.json";
    opts.trace_path = "t.json";
    opts.flightrec_path = "f.json";
    opts.bench_name = "fig";
    const core::SweepOptions phase = bench::phaseOptions(opts, "saturate");
    EXPECT_EQ(phase.threads, 2u);
    EXPECT_EQ(phase.governor, std::optional<bool>(true));
    EXPECT_EQ(phase.slo_p99_us, 500.0);
    EXPECT_EQ(phase.fr_armed, 3u);
    EXPECT_TRUE(phase.json_path.empty());
    EXPECT_TRUE(phase.stats_path.empty());
    EXPECT_TRUE(phase.trace_path.empty());
    EXPECT_TRUE(phase.flightrec_path.empty());
    EXPECT_EQ(phase.bench_name, "fig_saturate");

    // The saturation pass runs with the governor and SLO monitor the
    // measured pass gets.
    const bench::LabelledConfigs cfgs = {
        {"snic:nat", core::ServerConfig::snicBaseline(
                         funcs::FunctionId::Nat)}};
    const core::RunResult sat =
        bench::saturate(cfgs, phase, 5 * kMs).at(0);
    EXPECT_GT(sat.gov_epochs, 0u);
    EXPECT_EQ(sat.slo_target_p99_us, 500.0);
}

TEST(SweepArtifactsDeathTest, UnwritableArtifactExits1NamingPath)
{
    core::SweepPoint p;
    p.cfg.mode = core::Mode::SnicOnly;
    p.rate_gbps = 1.0;
    p.warmup = 1 * kMs;
    p.measure = 1 * kMs;
    const std::vector<core::SweepPoint> points = {p};
    const std::string path =
        ::testing::TempDir() + "no-such-dir/artifact.json";
    for (std::string core::SweepOptions::*field :
         {&core::SweepOptions::json_path, &core::SweepOptions::stats_path,
          &core::SweepOptions::trace_path,
          &core::SweepOptions::flightrec_path}) {
        core::SweepOptions opts;
        opts.*field = path;
        EXPECT_EXIT(core::runSweep(points, opts),
                    ::testing::ExitedWithCode(1),
                    "error: cannot write '" + path + "'");
    }
}

// ---- parseNumberArg / ArgRegistrar numeric operands ----------------

TEST(ParseNumberArg, RejectsNonNumbersAndNonFinite)
{
    for (const char *bad :
         {"", "nan", "NaN", "inf", "-inf", "infinity", "1x", "x1", "1 ",
          " 1", "1e400", "--1"}) {
        EXPECT_EQ(core::parseNumberArg<double>(bad), std::nullopt)
            << "double '" << bad << "'";
        EXPECT_EQ(core::parseNumberArg<unsigned>(bad), std::nullopt)
            << "unsigned '" << bad << "'";
        EXPECT_EQ(core::parseNumberArg<Tick>(bad, kMs), std::nullopt)
            << "duration '" << bad << "'";
    }
}

TEST(ParseNumberArg, IntegersRejectFractionsAndOutOfRange)
{
    for (const char *bad : {"1.5", "2.0", "1e3", "-1", "4294967296"})
        EXPECT_EQ(core::parseNumberArg<unsigned>(bad), std::nullopt)
            << "'" << bad << "'";
    EXPECT_EQ(core::parseNumberArg<std::uint64_t>("18446744073709551616"),
              std::nullopt);
    EXPECT_EQ(core::parseNumberArg<std::size_t>("-64"), std::nullopt);
}

TEST(ParseNumberArg, DurationsRejectValuesOutsideTick)
{
    // 1e300 ms is finite as a double but has no Tick representation;
    // the old parse-then-cast path was undefined behaviour here.
    EXPECT_EQ(core::parseNumberArg<Tick>("1e300", kMs), std::nullopt);
    EXPECT_EQ(core::parseNumberArg<Tick>("2e13", kUs), std::nullopt);
    EXPECT_EQ(core::parseNumberArg<Tick>("-1", kUs), std::nullopt);
}

TEST(ParseNumberArg, AcceptsOneValuePerKind)
{
    EXPECT_EQ(core::parseNumberArg<double>("42.5"), 42.5);
    EXPECT_EQ(core::parseNumberArg<unsigned>("4"), 4u);
    EXPECT_EQ(core::parseNumberArg<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(core::parseNumberArg<Tick>("0.5", kMs), 500 * kUs);
    EXPECT_EQ(core::parseNumberArg<Tick>("1.1", kMs), 1100 * kUs);
}

TEST(ArgRegistrarDeathTest, NonFiniteOrHugeDurationsExit2)
{
    const char *cases[][2] = {{"--slo-p99", "inf"},
                              {"--slo-p99", "nan"},
                              {"--slo-p99", "1e300"},
                              {"--slo-p99", "0"}};
    for (const auto &c : cases) {
        char prog[] = "bench";
        char flag[16], val[16];
        std::snprintf(flag, sizeof(flag), "%s", c[0]);
        std::snprintf(val, sizeof(val), "%s", c[1]);
        char *argv[] = {prog, flag, val, nullptr};
        EXPECT_EXIT(core::parseSweepArgs(3, argv, "bench"),
                    ::testing::ExitedWithCode(2), c[0])
            << "value '" << c[1] << "'";
    }
}

TEST(ArgRegistrarDeathTest, RejectedNumericOperandExits2)
{
    // A flag parsed through parseNumberArg reports the flag name and
    // exits 2, the same contract as every other malformed value.
    auto parseWith = [](const char *value) {
        unsigned cores = 0;
        core::ArgRegistrar reg("cli");
        reg.value("--cores", "N", "core count",
                  [&cores](const std::string &v) -> std::string {
                      const auto x = core::parseNumberArg<unsigned>(v);
                      if (!x)
                          return "needs a core count, got '" + v + "'";
                      cores = *x;
                      return {};
                  });
        char prog[] = "cli";
        char flag[] = "--cores";
        char val[32];
        std::snprintf(val, sizeof(val), "%s", value);
        char *argv[] = {prog, flag, val, nullptr};
        reg.parse(3, argv);
        return cores;
    };
    EXPECT_EQ(parseWith("6"), 6u);
    for (const char *bad : {"1e12", "2.5", "nan"})
        EXPECT_EXIT(parseWith(bad), ::testing::ExitedWithCode(2),
                    "--cores")
            << "value '" << bad << "'";
}
