/**
 * @file
 * Observability subsystem tests: stats-registry naming and lifecycle,
 * probe sampling, histogram quantile accuracy against an exact
 * reference, trace-ring overflow/export semantics, flight-recorder
 * dump bookkeeping, obs config validation, serialization smoke
 * checks, and an end-to-end Hal-mode integration run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/server.hh"
#include "fleet/fleet.hh"
#include "net/traffic.hh"
#include "obs/energy.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"
#include "obs/slo.hh"
#include "obs/span.hh"
#include "proc/processor.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

using namespace halsim;
using namespace halsim::obs;

// --- registry naming ---------------------------------------------------

TEST(StatsRegistry, RegistersAndResolvesDottedPaths)
{
    StatsRegistry reg;
    Counter *c = reg.counter("server.snic.frames");
    Gauge *g = reg.gauge("server.hlb.fwd_th");
    ASSERT_NE(c, nullptr);
    ASSERT_NE(g, nullptr);

    c->inc(41);
    c->inc();
    g->set(35.5);

    EXPECT_EQ(reg.counterValue("server.snic.frames"), 42u);
    ASSERT_NE(reg.findGauge("server.hlb.fwd_th"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("server.hlb.fwd_th")->value(), 35.5);
    EXPECT_EQ(reg.findCounter("no.such.path"), nullptr);
    EXPECT_EQ(reg.counterValue("no.such.path"), 0u);
}

TEST(StatsRegistry, RejectsInvalidPaths)
{
    StatsRegistry reg;
    EXPECT_THROW(reg.counter(""), std::invalid_argument);
    EXPECT_THROW(reg.counter("Server.frames"), std::invalid_argument);
    EXPECT_THROW(reg.counter("server..frames"), std::invalid_argument);
    EXPECT_THROW(reg.counter(".server"), std::invalid_argument);
    EXPECT_THROW(reg.counter("server."), std::invalid_argument);
    EXPECT_THROW(reg.counter("server.fra mes"), std::invalid_argument);
}

TEST(StatsRegistry, RejectsDuplicatePaths)
{
    StatsRegistry reg;
    reg.counter("a.b");
    EXPECT_THROW(reg.counter("a.b"), std::invalid_argument);
    EXPECT_THROW(reg.gauge("a.b"), std::invalid_argument);
    EXPECT_THROW(reg.probe("a.b", [] { return 0.0; }),
                 std::invalid_argument);
}

TEST(StatsRegistry, FnCounterReadsLazily)
{
    StatsRegistry reg;
    std::uint64_t live = 7;
    reg.fnCounter("live.value", [&live] { return live; });
    EXPECT_EQ(reg.counterValue("live.value"), 7u);
    live = 1000;
    EXPECT_EQ(reg.counterValue("live.value"), 1000u);
}

TEST(StatsRegistry, FnGaugeReadsLazily)
{
    StatsRegistry reg;
    double live = 1.5;
    reg.fnGauge("live.gauge", [&live] { return live; });
    EXPECT_DOUBLE_EQ(reg.gaugeValue("live.gauge"), 1.5);
    live = -7.25;
    EXPECT_DOUBLE_EQ(reg.gaugeValue("live.gauge"), -7.25);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("no.such.path"), 0.0);

    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_NE(os.str().find("\"gauge\":-7.25"), std::string::npos)
        << os.str();
}

TEST(StatsRegistry, FnGaugeRejectsNullAndDuplicates)
{
    StatsRegistry reg;
    EXPECT_THROW(reg.fnGauge("g", nullptr), std::invalid_argument);
    reg.fnGauge("g", [] { return 0.0; });
    EXPECT_THROW(reg.fnGauge("g", [] { return 1.0; }),
                 std::invalid_argument);
}

TEST(StatsRegistry, GaugeValueResolvesPlainGaugesToo)
{
    StatsRegistry reg;
    reg.gauge("plain")->set(3.5);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("plain"), 3.5);
}

// --- probes and sampling ----------------------------------------------

TEST(StatsRegistry, ProbeSamplesIntoSummaryAndHistogram)
{
    StatsRegistry reg;
    double signal = 0.0;
    StatsRegistry::ProbeOptions opt;
    opt.series = true;
    opt.hist_lo = 0.1;
    opt.hist_hi = 100.0;
    reg.probe("sig", [&signal] { return signal; }, opt);

    for (int i = 1; i <= 4; ++i) {
        signal = static_cast<double>(i);
        reg.sampleProbes(static_cast<Tick>(i) * kMs);
    }

    const Accumulator *sum = reg.probeSummary("sig");
    ASSERT_NE(sum, nullptr);
    EXPECT_EQ(sum->count(), 4u);
    EXPECT_DOUBLE_EQ(sum->mean(), 2.5);
    EXPECT_DOUBLE_EQ(sum->min(), 1.0);
    EXPECT_DOUBLE_EQ(sum->max(), 4.0);

    const Histogram *hist = reg.probeHistogram("sig");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count(), 4u);
    EXPECT_EQ(reg.sampleEpochs(), 4u);

    // The opted-in series shows up in JSON as [tick, value] pairs.
    std::ostringstream os;
    reg.writeJson(os);
    const std::string want =
        "\"series\":[[" + std::to_string(1 * kMs) + ",1]";
    EXPECT_NE(os.str().find(want), std::string::npos) << os.str();
}

TEST(StatsRegistry, ResetAllZeroesOwnedStatsButNotFnCounters)
{
    StatsRegistry reg;
    Counter *c = reg.counter("c");
    std::uint64_t live = 5;
    reg.fnCounter("live", [&live] { return live; });
    double sig = 3.0;
    reg.probe("sig", [&sig] { return sig; });

    c->inc(10);
    reg.sampleProbes(1 * kMs);
    reg.resetAll();

    EXPECT_EQ(reg.counterValue("c"), 0u);
    EXPECT_EQ(reg.probeSummary("sig")->count(), 0u);
    EXPECT_EQ(reg.sampleEpochs(), 0u);
    EXPECT_EQ(reg.counterValue("live"), 5u);
}

// --- merge --------------------------------------------------------------

TEST(StatsRegistry, MergeFoldsSameShapeRegistries)
{
    StatsRegistry a, b;
    a.counter("n")->inc(3);
    b.counter("n")->inc(4);
    a.accumulator("acc")->sample(1.0);
    b.accumulator("acc")->sample(3.0);
    a.histogram("h", 1.0, 1e3, 32)->sample(10.0);
    b.histogram("h", 1.0, 1e3, 32)->sample(20.0);
    b.gauge("g")->set(9.0);
    a.gauge("g");

    a.merge(b);
    EXPECT_EQ(a.counterValue("n"), 7u);
    EXPECT_EQ(a.findAccumulator("acc")->count(), 2u);
    EXPECT_DOUBLE_EQ(a.findAccumulator("acc")->mean(), 2.0);
    EXPECT_EQ(a.findHistogram("h")->count(), 2u);
    EXPECT_DOUBLE_EQ(a.findGauge("g")->value(), 9.0);
}

TEST(StatsRegistry, MergeRejectsShapeMismatch)
{
    StatsRegistry a, b, c;
    a.counter("n");
    b.counter("m");
    EXPECT_THROW(a.merge(b), std::invalid_argument);
    c.gauge("n");
    EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Histogram, MergeRejectsBinningMismatch)
{
    Histogram a(1.0, 1e3, 32);
    Histogram b(1.0, 1e4, 32);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// --- histogram quantiles vs exact reference ---------------------------

TEST(Histogram, QuantilesTrackExactReference)
{
    // Deterministic skewed sample set: i^1.5 over three decades.
    std::vector<double> vals;
    Histogram h(1.0, 1e6, 64);
    for (int i = 1; i <= 2000; ++i) {
        const double v =
            static_cast<double>(i) * std::sqrt(static_cast<double>(i));
        vals.push_back(v);
        h.sample(v);
    }
    // vals is already sorted ascending.
    for (double q : {0.10, 0.50, 0.90, 0.99}) {
        const std::size_t idx = static_cast<std::size_t>(
            q * static_cast<double>(vals.size() - 1));
        const double exact = vals[idx];
        const double est = h.quantile(q);
        // 64 bins/decade => adjacent edges differ by ~3.7%; allow a
        // little extra for interpolation at the winning bin.
        EXPECT_NEAR(est, exact, exact * 0.06)
            << "q=" << q << " exact=" << exact << " est=" << est;
    }
    EXPECT_DOUBLE_EQ(h.quantile(0.0), h.minSample());
}

// --- deterministic number formatting -----------------------------------

TEST(JsonNumber, ShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(0.0), "0");
    const double v = 1.0 / 3.0;
    EXPECT_EQ(std::strtod(jsonNumber(v).c_str(), nullptr), v);
}

// --- trace ring ---------------------------------------------------------

TEST(SpanTracer, RingOverflowKeepsNewestRecords)
{
    SpanTracer t(SpanTracer::Config{8, 1});
    for (std::uint64_t i = 0; i < 20; ++i)
        t.record(static_cast<Tick>(i) * kUs, i, TracePoint::Ingress, 0);

    EXPECT_EQ(t.recorded(), 20u);
    EXPECT_EQ(t.overwritten(), 12u);
    EXPECT_EQ(t.size(), 8u);
    EXPECT_EQ(t.capacity(), 8u);
    // Oldest retained record is #12, newest #19.
    EXPECT_EQ(t.at(0).id, 12u);
    EXPECT_EQ(t.at(7).id, 19u);
}

TEST(SpanTracer, SamplingFiltersById)
{
    SpanTracer t(SpanTracer::Config{16, 64});
    EXPECT_TRUE(t.wants(0));
    EXPECT_FALSE(t.wants(1));
    EXPECT_TRUE(t.wants(128));
    EXPECT_FALSE(t.wants(129));
}

TEST(SpanTracer, ChromeJsonSmoke)
{
    SpanTracer t(SpanTracer::Config{16, 1});
    t.record(1500, 64, TracePoint::RingEnqueue, laneId(Lane::SnicRing),
             3);
    t.record(2 * kUs, 64, TracePoint::ServiceEnd, laneId(Lane::SnicCore));

    std::ostringstream os;
    t.writeChromeJson(os, 7);
    const std::string doc = os.str();
    EXPECT_EQ(doc.find("{\"traceEvents\":["), 0u) << doc;
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"snic_ring\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":7"), std::string::npos);
    // 1500 ticks are a 0.0015 us sub-microsecond remainder (kUs ticks
    // per us), and whole-us ticks print without a fraction.
    EXPECT_NE(doc.find("\"ts\":0.001500"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"ts\":2,"), std::string::npos) << doc;
    // Only lanes that hold records get a row label.
    EXPECT_EQ(doc.find("\"return_link\""), std::string::npos) << doc;
}

TEST(SpanTracer, TextOutputIsDeterministic)
{
    auto fill = [](SpanTracer &t) {
        t.record(10, 0, TracePoint::Ingress, 0);
        t.record(20, 0, TracePoint::RingEnqueue, 2, 5);
        t.record(30, 0, TracePoint::Drop, 4, 1);
    };
    SpanTracer a(SpanTracer::Config{8, 1});
    SpanTracer b(SpanTracer::Config{8, 1});
    fill(a);
    fill(b);
    std::ostringstream oa, ob;
    a.writeText(oa);
    b.writeText(ob);
    EXPECT_EQ(oa.str(), ob.str());
    EXPECT_NE(oa.str().find("ring_enqueue"), std::string::npos);
}

TEST(SpanTracer, StageRecordsExportUnderLifecyclePointOnTheirLane)
{
    SpanTracer t(SpanTracer::Config{8, 1});
    const std::uint8_t lane = laneId(Lane::ReturnLink);
    t.record(3 * kUs, 128, TracePoint::Egress, lane, 9);

    const SpanEvent &e = t.at(0);
    EXPECT_EQ(e.kind, SpanKind::Stage);
    EXPECT_EQ(e.phase, SpanPhase::Instant);
    EXPECT_EQ(e.a, static_cast<std::uint32_t>(TracePoint::Egress));
    EXPECT_EQ(e.b, 9u);

    std::ostringstream json, text;
    t.writeChromeJson(json, 0);
    t.writeText(text);
    const std::string row = "{\"name\":\"egress\",\"ph\":\"i\"";
    EXPECT_NE(json.str().find(row), std::string::npos) << json.str();
    EXPECT_NE(json.str().find("\"tid\":" + std::to_string(lane) +
                              ",\"args\":{\"id\":128,"),
              std::string::npos)
        << json.str();
    EXPECT_NE(json.str().find("\"tid\":" + std::to_string(lane) +
                              ",\"args\":{\"name\":\"return_link\"}"),
              std::string::npos)
        << json.str();
    EXPECT_EQ(json.str().find("\"stage\""), std::string::npos);
    EXPECT_EQ(text.str(),
              "3000000 id=128 egress ph=i lane=return_link a=6 b=9\n");
}

TEST(SpanTracer, EndWhoseBeginWasOverwrittenDemotesToInstant)
{
    SpanTracer t(SpanTracer::Config{4, 1});
    const std::uint8_t lane = laneId(Lane::Client);
    // Request 7's Begin falls off the 4-slot ring; request 8 keeps
    // both halves.
    t.record(1 * kUs, 7, SpanKind::Request, SpanPhase::Begin, lane);
    t.record(2 * kUs, 8, SpanKind::Request, SpanPhase::Begin, lane);
    t.record(3 * kUs, 0, SpanKind::HealthUp, SpanPhase::Instant,
             laneId(Lane::Health));
    t.record(4 * kUs, 7, SpanKind::Request, SpanPhase::End, lane);
    t.record(5 * kUs, 8, SpanKind::Request, SpanPhase::End, lane);
    ASSERT_EQ(t.overwritten(), 1u);

    std::ostringstream os;
    t.writeChromeJson(os, 0);
    const std::string doc = os.str();
    // The orphaned End is an instant carrying its id in args...
    EXPECT_NE(doc.find("{\"name\":\"request\",\"ph\":\"i\",\"s\":\"t\","
                       "\"ts\":4,\"pid\":0,\"tid\":9,\"args\":{\"id\":7,"),
              std::string::npos)
        << doc;
    EXPECT_EQ(doc.find("\"ph\":\"e\",\"id\":7"), std::string::npos) << doc;
    // ...while the intact pair stays an async span with its flow.
    EXPECT_NE(doc.find("\"ph\":\"b\",\"id\":8"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"ph\":\"e\",\"id\":8"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"cat\":\"flow\",\"ph\":\"s\",\"id\":8"),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"cat\":\"flow\",\"ph\":\"f\",\"id\":8"),
              std::string::npos)
        << doc;
    EXPECT_EQ(doc.find("\"cat\":\"flow\",\"ph\":\"s\",\"id\":7"),
              std::string::npos)
        << doc;
}

// --- flight recorder ----------------------------------------------------

TEST(FlightRecorder, TruncatedWhenWindowStartWasOverwritten)
{
    // Four slots hold ticks 6..9 us of ten records; a dump at 9 us
    // looking back 5 us wants 4 us onward, whose head is gone.
    const auto dumpAt9us = [](Tick pre) {
        EventQueue eq;
        FlightRecorder::Config fc;
        fc.capacity = 4;
        fc.pre = pre;
        fc.post = 1 * kUs;
        fc.armed = frTriggerBit(FrTrigger::Fault);
        FlightRecorder fr(eq, fc);
        for (std::uint64_t i = 0; i < 10; ++i) {
            fr.record(static_cast<Tick>(i) * kUs, i, SpanKind::Attempt,
                      SpanPhase::Instant, laneId(Lane::Client));
        }
        fr.trigger(9 * kUs, FrTrigger::Fault);
        fr.finalizePending(20 * kUs);
        std::ostringstream os;
        fr.writeJson(os);
        return os.str();
    };
    const std::string cut = dumpAt9us(5 * kUs);
    EXPECT_NE(cut.find("\"truncated\":true"), std::string::npos) << cut;
    EXPECT_NE(cut.find("\"window_begin\":4000000"), std::string::npos)
        << cut;
    // Looking back only 2 us starts inside the retained records.
    const std::string whole = dumpAt9us(2 * kUs);
    EXPECT_NE(whole.find("\"truncated\":false"), std::string::npos)
        << whole;
}

TEST(FlightRecorder, DumpsBeyondMaxAreCountedAsDropped)
{
    EventQueue eq;
    FlightRecorder::Config fc;
    fc.max_dumps = 2;
    fc.armed = frTriggerBit(FrTrigger::Fault);
    FlightRecorder fr(eq, fc);
    for (int i = 0; i < 3; ++i)
        fr.trigger(static_cast<Tick>(i) * kUs, FrTrigger::Fault);
    // An unarmed source counts but never takes a slot.
    fr.trigger(4 * kUs, FrTrigger::Slo);
    fr.finalizePending(10 * kUs);

    EXPECT_EQ(fr.dumps(), 2u);
    EXPECT_EQ(fr.dumpsDropped(), 1u);
    EXPECT_EQ(fr.triggers(FrTrigger::Fault), 3u);
    EXPECT_EQ(fr.triggers(FrTrigger::Slo), 1u);
    EXPECT_EQ(fr.triggersTotal(), 4u);
    std::ostringstream os;
    fr.writeJson(os);
    EXPECT_NE(os.str().find("\"dumps_dropped\":1"), std::string::npos)
        << os.str();
}

// --- obs config validation ----------------------------------------------

TEST(ObsConfigValidation, EachRejectedFieldThrowsFromServerAndFleet)
{
    struct Case
    {
        const char *field;
        void (*breakIt)(ObsConfig &);
    };
    const Case cases[] = {
        {"obs.sample_epoch",
         [](ObsConfig &o) {
             o.stats = true;
             o.sample_epoch = 0;
         }},
        {"obs.trace_capacity",
         [](ObsConfig &o) {
             o.trace = true;
             o.trace_capacity = 0;
         }},
        {"obs.trace_sample_every",
         [](ObsConfig &o) {
             o.spans = true;
             o.trace_sample_every = 0;
         }},
        {"obs.fr_capacity",
         [](ObsConfig &o) {
             o.flightrec = true;
             o.fr_capacity = 0;
         }},
        {"obs.fr_max_dumps",
         [](ObsConfig &o) {
             o.flightrec = true;
             o.fr_max_dumps = 0;
         }},
    };
    const auto throwsNaming = [](const auto &construct,
                                 const std::string &field) {
        try {
            construct();
        } catch (const std::invalid_argument &e) {
            return std::string(e.what()).find(field) != std::string::npos;
        }
        return false;
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.field);
        ObsConfig bad;
        c.breakIt(bad);
        ASSERT_EQ(bad.validate().size(), 1u);

        core::ServerConfig scfg = core::ServerConfig::halDefault();
        scfg.obs = bad;
        EXPECT_TRUE(throwsNaming(
            [&scfg] {
                EventQueue eq;
                core::ServerSystem sys(eq, scfg);
            },
            c.field));

        fleet::FleetConfig fcfg;
        fcfg.obs = bad;
        EXPECT_TRUE(throwsNaming(
            [&fcfg] {
                EventQueue eq;
                fleet::FleetSystem sys(eq, fcfg);
            },
            c.field));
    }
    // A field of a feature that is off is not checked.
    ObsConfig off;
    off.trace_capacity = 0;
    off.fr_max_dumps = 0;
    EXPECT_TRUE(off.validate().empty());
}

// --- end-to-end: Hal mode with obs on ----------------------------------

TEST(ObsIntegration, HalRunEmitsStatsTreeAndTrace)
{
    core::ServerConfig cfg = core::ServerConfig::halDefault();
    cfg.obs.stats = true;
    cfg.obs.trace = true;
    cfg.obs.trace_sample_every = 16;

    EventQueue eq;
    core::ServerSystem sys(eq, cfg);
    const core::RunResult r = sys.run(
        std::make_unique<net::ConstantRate>(60.0), 5 * kMs, 30 * kMs);
    EXPECT_GT(r.responses, 0u);

    ASSERT_NE(sys.obs(), nullptr);
    const StatsRegistry &reg = sys.obs()->registry();

    // Per-core busy fractions and per-ring occupancy histograms made
    // it into the tree and were sampled.
    const Accumulator *busy =
        reg.probeSummary("server.snic.core0.busy_frac");
    ASSERT_NE(busy, nullptr);
    EXPECT_GT(busy->count(), 0u);
    EXPECT_GT(busy->max(), 0.0);
    ASSERT_NE(reg.probeHistogram("server.snic.ring0.occupancy"),
              nullptr);
    ASSERT_NE(reg.probeSummary("server.hlb.director.fwd_th_gbps"),
              nullptr);

    // Component counters resolve through the registry.
    EXPECT_EQ(reg.counterValue("server.snic.frames"), r.snic_frames);
    EXPECT_GT(reg.counterValue("server.hlb.merger.total"), 0u);

    // The tracer captured sampled packet lifecycles.
    ASSERT_NE(sys.obs()->tracer(), nullptr);
    EXPECT_GT(sys.obs()->tracer()->recorded(), 0u);

    // Serialized forms are non-trivial.
    std::ostringstream json, text;
    sys.obs()->writeStatsJson(json);
    sys.obs()->writeStatsText(text);
    EXPECT_NE(json.str().find("\"busy_frac\""), std::string::npos);
    EXPECT_NE(text.str().find("server.snic.core0.busy_frac"),
              std::string::npos);
}

// --- power meter window edges ------------------------------------------

TEST(PowerMeter, AverageAndJoulesRespectResetBoundary)
{
    EventQueue eq;
    proc::PowerMeter pm(eq);

    // A contribution added and removed entirely before the reset must
    // not leak into the post-reset average or integral.
    pm.add(10.0);
    eq.runUntil(1 * kSec);
    pm.add(-10.0);
    pm.reset();
    eq.runUntil(2 * kSec);
    EXPECT_DOUBLE_EQ(pm.averageW(), 0.0);
    EXPECT_DOUBLE_EQ(pm.joules(), 0.0);

    // A level held across the reset persists (reset zeroes the
    // integral, not the current draw).
    pm.add(5.0);
    pm.reset();
    eq.runUntil(4 * kSec);
    EXPECT_DOUBLE_EQ(pm.currentW(), 5.0);
    EXPECT_DOUBLE_EQ(pm.averageW(), 5.0);
    EXPECT_DOUBLE_EQ(pm.joules(), 10.0);
}

TEST(PowerMeter, AverageIsTimeWeightedNotSampleWeighted)
{
    EventQueue eq;
    proc::PowerMeter pm(eq);
    pm.add(2.0);
    eq.runUntil(3 * kSec);   // 2 W for 3 s
    pm.add(6.0);
    eq.runUntil(4 * kSec);   // 8 W for 1 s
    EXPECT_DOUBLE_EQ(pm.joules(), 14.0);
    EXPECT_DOUBLE_EQ(pm.averageW(), 3.5);
}

// --- energy ledger ------------------------------------------------------

TEST(EnergyLedger, WindowsBySnapshotDifferencing)
{
    // Synthetic monotone integrator standing in for a power meter.
    double j = 5.0;
    EnergyLedger ledger;
    ledger.addDynamic(
        "dyn", [&j] { return j; }, [] { return 2.0; });
    ledger.addStatic("base", 10.0);

    ledger.beginWindow(1 * kSec);
    j = 9.0;   // 4 J accumulated inside the window
    ledger.endWindow(3 * kSec);

    EXPECT_DOUBLE_EQ(ledger.windowSeconds(), 2.0);
    EXPECT_DOUBLE_EQ(ledger.joules("dyn"), 4.0);
    EXPECT_DOUBLE_EQ(ledger.joules("base"), 20.0);
    EXPECT_DOUBLE_EQ(ledger.joules("nope"), 0.0);
    EXPECT_DOUBLE_EQ(ledger.totalJ(), 24.0);

    // Re-windowing snapshots afresh: pre-window joules never leak.
    ledger.beginWindow(3 * kSec);
    j = 10.0;
    ledger.endWindow(4 * kSec);
    EXPECT_DOUBLE_EQ(ledger.joules("dyn"), 1.0);
    EXPECT_DOUBLE_EQ(ledger.joules("base"), 10.0);
}

TEST(EnergyLedger, RejectsMissingReaders)
{
    EnergyLedger ledger;
    EXPECT_THROW(
        ledger.addDynamic("a", nullptr, [] { return 0.0; }),
        std::invalid_argument);
    EXPECT_THROW(
        ledger.addDynamic("a", [] { return 0.0; }, nullptr),
        std::invalid_argument);
}

TEST(EnergyLedger, AttachObsExposesGaugesAndProbes)
{
    double j = 0.0;
    double w = 3.0;
    EnergyLedger ledger;
    ledger.addDynamic(
        "dyn", [&j] { return j; }, [&w] { return w; });
    ledger.addStatic("base", 194.0);

    StatsRegistry reg;
    ledger.attachObs(&reg, "server.energy", false);

    ledger.beginWindow(0);
    j = 6.0;
    ledger.endWindow(2 * kSec);

    EXPECT_DOUBLE_EQ(reg.gaugeValue("server.energy.dyn.joules"), 6.0);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("server.energy.base.joules"),
                     388.0);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("server.energy.base.power_w"),
                     194.0);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("server.energy.total_j"), 394.0);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("server.energy.window_seconds"),
                     2.0);

    // Dynamic power is an epoch-sampled probe, not a gauge.
    reg.sampleProbes(1 * kMs);
    const Accumulator *p = reg.probeSummary("server.energy.dyn.power_w");
    ASSERT_NE(p, nullptr);
    EXPECT_DOUBLE_EQ(p->mean(), 3.0);
}

// --- SLO monitor --------------------------------------------------------

TEST(SloMonitor, MatchesExactReferencePerEpoch)
{
    SloConfig cfg;
    cfg.target_p99_us = 100.0;
    cfg.epoch = 1 * kMs;
    SloMonitor mon(cfg);
    mon.beginWindow(0, 10 * kMs);

    // Epochs 0-4: 50 us latencies (compliant); epochs 5-9: 200 us
    // (violating). Identically-binned reference histograms give the
    // exact per-epoch p99 the monitor must reproduce.
    Histogram ref_low, ref_high;
    for (int e = 0; e < 10; ++e) {
        const Tick lat = (e < 5 ? 50 : 200) * kUs;
        for (int i = 0; i < 20; ++i) {
            const Tick now = static_cast<Tick>(e) * kMs +
                             static_cast<Tick>(i) * 40 * kUs;
            mon.record(now, lat);
            (e < 5 ? ref_low : ref_high)
                .sample(static_cast<double>(lat));
        }
    }
    mon.finishWindow();

    EXPECT_EQ(mon.epochs(), 10u);
    EXPECT_EQ(mon.violationEpochs(), 5u);
    // Each violating epoch saw the same 20 samples as 1/5th of
    // ref_high; quantiles of identical multisets are identical.
    Histogram one_epoch;
    for (int i = 0; i < 20; ++i)
        one_epoch.sample(static_cast<double>(200 * kUs));
    EXPECT_DOUBLE_EQ(mon.worstEpochP99Us(),
                     one_epoch.p99() / static_cast<double>(kUs));
    EXPECT_GT(mon.worstEpochP99Us(), cfg.target_p99_us);
}

TEST(SloMonitor, CountsEmptyEpochsAndClampsOutsideWindow)
{
    SloConfig cfg;
    cfg.target_p99_us = 10.0;
    cfg.epoch = 1 * kMs;
    SloMonitor mon(cfg);
    mon.beginWindow(2 * kMs, 7 * kMs);

    // Before the window and at/after its end: ignored.
    mon.record(1 * kMs, 500 * kUs);
    mon.record(7 * kMs, 500 * kUs);
    mon.record(9 * kMs, 500 * kUs);
    mon.finishWindow();

    EXPECT_EQ(mon.epochs(), 5u);   // silent epochs still count
    EXPECT_EQ(mon.violationEpochs(), 0u);
    EXPECT_DOUBLE_EQ(mon.worstEpochP99Us(), 0.0);
}

TEST(SloMonitor, PartialTrailingEpochIsClosed)
{
    SloConfig cfg;
    cfg.target_p99_us = 10.0;
    cfg.epoch = 2 * kMs;
    SloMonitor mon(cfg);
    mon.beginWindow(0, 5 * kMs);   // 2.5 epochs
    mon.record(4500 * kUs, 50 * kUs);
    mon.finishWindow();
    EXPECT_EQ(mon.epochs(), 3u);   // ceil(5 / 2)
    EXPECT_EQ(mon.violationEpochs(), 1u);
}

// --- tail attribution ---------------------------------------------------

TEST(SloAttribution, PicksSlowestStagePerPacket)
{
    SpanTracer t(SpanTracer::Config{64, 1});
    const Tick target = 100 * kUs;

    // pkt 1: 300 us span dominated by queue wait.
    t.record(0, 1, TracePoint::Ingress, 0);
    t.record(10 * kUs, 1, TracePoint::RingEnqueue, 1);
    t.record(260 * kUs, 1, TracePoint::ServiceStart, 2);
    t.record(280 * kUs, 1, TracePoint::ServiceEnd, 2);
    t.record(300 * kUs, 1, TracePoint::Egress, 3);

    // pkt 2: 250 us span dominated by service time.
    t.record(0, 2, TracePoint::Ingress, 0);
    t.record(10 * kUs, 2, TracePoint::RingEnqueue, 1);
    t.record(20 * kUs, 2, TracePoint::ServiceStart, 2);
    t.record(240 * kUs, 2, TracePoint::ServiceEnd, 2);
    t.record(250 * kUs, 2, TracePoint::Egress, 3);

    // pkt 3: fast packet, inside the target.
    t.record(0, 3, TracePoint::Ingress, 0);
    t.record(1 * kUs, 3, TracePoint::RingEnqueue, 1);
    t.record(2 * kUs, 3, TracePoint::ServiceStart, 2);
    t.record(3 * kUs, 3, TracePoint::ServiceEnd, 2);
    t.record(4 * kUs, 3, TracePoint::Egress, 3);

    // pkt 4: incomplete span (no egress) — skipped.
    t.record(0, 4, TracePoint::Ingress, 0);
    t.record(10 * kUs, 4, TracePoint::RingEnqueue, 1);

    const SloAttribution a = attributeTail(t, target);
    EXPECT_EQ(a.attributed, 2u);
    EXPECT_EQ(a.queue_wait, 1u);
    EXPECT_EQ(a.service, 1u);
    EXPECT_EQ(a.dispatch, 0u);
    EXPECT_EQ(a.egress, 0u);
}

TEST(SloAttribution, IgnoresNonStageRecordsInAMixedRing)
{
    // Span records share the ring with the packet stages. Their a/b
    // fields are not lifecycle points: read as such, the early
    // Attempt (a = Ingress) would stretch pkt 3 over the target and
    // the late End (a = ServiceEnd) would make pkt 1 service-bound.
    SpanTracer t(SpanTracer::Config{64, 1});
    const Tick target = 100 * kUs;
    const auto pt = [](TracePoint p) {
        return static_cast<std::uint32_t>(p);
    };
    const std::uint8_t client = laneId(Lane::Client);

    t.record(0, 3, SpanKind::Attempt, SpanPhase::Instant, client,
             pt(TracePoint::Ingress));
    t.record(0, 1, TracePoint::Ingress, 0);
    t.record(10 * kUs, 1, TracePoint::RingEnqueue, 1);
    t.record(50 * kUs, 0, SpanKind::GovernorEpoch, SpanPhase::Instant,
             laneId(Lane::Governor), pt(TracePoint::Egress));
    t.record(200 * kUs, 3, TracePoint::Ingress, 0);
    t.record(201 * kUs, 3, TracePoint::RingEnqueue, 1);
    t.record(202 * kUs, 3, TracePoint::ServiceStart, 2);
    t.record(203 * kUs, 3, TracePoint::ServiceEnd, 2);
    t.record(204 * kUs, 3, TracePoint::Egress, 3);
    t.record(260 * kUs, 1, TracePoint::ServiceStart, 2);
    t.record(280 * kUs, 1, TracePoint::ServiceEnd, 2);
    t.record(300 * kUs, 1, TracePoint::Egress, 3);
    t.record(900 * kUs, 1, SpanKind::Request, SpanPhase::End, client,
             pt(TracePoint::ServiceEnd));

    const SloAttribution a = attributeTail(t, target);
    EXPECT_EQ(a.attributed, 1u);
    EXPECT_EQ(a.queue_wait, 1u);
    EXPECT_EQ(a.service, 0u);
}

// --- end-to-end: energy conservation and SLO accounting -----------------

TEST(ObsIntegration, EnergyComponentsSumAndConserve)
{
    core::ServerConfig cfg = core::ServerConfig::halDefault();
    EventQueue eq;
    core::ServerSystem sys(eq, cfg);
    const Tick measure = 40 * kMs;
    const core::RunResult r = sys.run(
        std::make_unique<net::ConstantRate>(60.0), 5 * kMs, measure);

    ASSERT_GT(r.responses, 0u);
    ASSERT_GT(r.energy_total_j, 0.0);

    // The total is the literal sum of the components.
    const double sum = r.energy_snic_cpu_j + r.energy_snic_accel_j +
                       r.energy_host_cpu_j + r.energy_host_accel_j +
                       r.energy_extra_j + r.energy_static_j;
    EXPECT_DOUBLE_EQ(sum, r.energy_total_j);

    // Conservation: the ledger's per-component integrals agree with
    // the independently averaged system power x window length. Both
    // derive from the same piecewise-constant levels, so only
    // floating-point association error separates them.
    const double secs =
        static_cast<double>(measure) / static_cast<double>(kSec);
    const double via_power = r.system_power_w * secs;
    EXPECT_NEAR(r.energy_total_j, via_power,
                1e-9 * std::max(r.energy_total_j, 1.0));

    // Paper anchors: the static baseline dominates, the SNIC's share
    // of system power is small (0.5-2 %), and per-request energy is
    // total over responses.
    EXPECT_GT(r.energy_static_j, 0.5 * r.energy_total_j);
    EXPECT_GT(r.energy_snic_cpu_j, 0.0);
    EXPECT_LT(r.energy_snic_cpu_j, 0.1 * r.energy_total_j);
    EXPECT_DOUBLE_EQ(
        r.j_per_request,
        r.energy_total_j / static_cast<double>(r.responses));
    EXPECT_GT(r.j_per_gb, 0.0);
}

TEST(ObsIntegration, SloEpochAndViolationAccounting)
{
    // A 1 us target no real run can meet: every epoch violates.
    core::ServerConfig cfg = core::ServerConfig::halDefault();
    cfg.slo.target_p99_us = 1.0;
    {
        EventQueue eq;
        core::ServerSystem sys(eq, cfg);
        const core::RunResult r = sys.run(
            std::make_unique<net::ConstantRate>(60.0), 5 * kMs,
            30 * kMs);
        EXPECT_EQ(r.slo_epochs, 6u);   // 30 ms / 5 ms default epoch
        EXPECT_EQ(r.slo_violation_epochs, r.slo_epochs);
        EXPECT_DOUBLE_EQ(r.slo_target_p99_us, 1.0);
        EXPECT_GT(r.slo_worst_p99_us, 1.0);
    }
    // A 1 s target nothing violates.
    cfg.slo.target_p99_us = 1e6;
    {
        EventQueue eq;
        core::ServerSystem sys(eq, cfg);
        const core::RunResult r = sys.run(
            std::make_unique<net::ConstantRate>(60.0), 5 * kMs,
            30 * kMs);
        EXPECT_EQ(r.slo_epochs, 6u);
        EXPECT_EQ(r.slo_violation_epochs, 0u);
    }
    // Monitoring off: fields stay zero.
    cfg.slo.target_p99_us = 0.0;
    {
        EventQueue eq;
        core::ServerSystem sys(eq, cfg);
        const core::RunResult r = sys.run(
            std::make_unique<net::ConstantRate>(60.0), 5 * kMs,
            30 * kMs);
        EXPECT_EQ(r.slo_epochs, 0u);
        EXPECT_DOUBLE_EQ(r.slo_target_p99_us, 0.0);
    }
}

TEST(ObsIntegration, SloStatsTreeAndTailAttribution)
{
    core::ServerConfig cfg = core::ServerConfig::halDefault();
    cfg.obs.stats = true;
    cfg.obs.trace = true;
    cfg.obs.trace_sample_every = 4;
    cfg.slo.target_p99_us = 40.0;

    EventQueue eq;
    core::ServerSystem sys(eq, cfg);
    const core::RunResult r = sys.run(
        std::make_unique<net::ConstantRate>(70.0), 5 * kMs, 30 * kMs);
    ASSERT_GT(r.responses, 0u);

    const StatsRegistry &reg = sys.obs()->registry();
    EXPECT_EQ(reg.counterValue("server.slo.epochs"), r.slo_epochs);
    EXPECT_EQ(reg.counterValue("server.slo.violation_epochs"),
              r.slo_violation_epochs);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("server.slo.target_p99_us"), 40.0);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("server.slo.worst_epoch_p99_us"),
                     r.slo_worst_p99_us);

    // Energy appears in the same tree, and its lazy total matches the
    // RunResult field exactly.
    EXPECT_DOUBLE_EQ(reg.gaugeValue("server.energy.total_j"),
                     r.energy_total_j);

    // Tail attribution: every attributed packet lands in exactly one
    // stage bucket.
    const std::uint64_t attributed =
        reg.counterValue("server.slo.tail_attributed");
    EXPECT_EQ(reg.counterValue("server.slo.tail_dispatch") +
                  reg.counterValue("server.slo.tail_queue_wait") +
                  reg.counterValue("server.slo.tail_service") +
                  reg.counterValue("server.slo.tail_egress"),
              attributed);
}
