/**
 * @file
 * Simulator-core microbenchmark: the machine-readable perf baseline
 * every hot-path PR is measured against.
 *
 * Metrics, all wall-clock:
 *  - events_chain/sec: one-shot chains plus retimer churn (tombstones)
 *    through the event queue;
 *  - packets/sec: full traffic-generation fast path — makeUdpPacket,
 *    link serialization, packet teardown — at line rate;
 *  - checksum MB/s: RFC 1071 one's-complement sum over MTU frames;
 *  - single_run_events_per_sec: one full HAL ServerSystem run
 *    (DpdkFwd at 90 Gbps) timed end to end.
 *
 * `--json PATH` writes the metrics as a BENCH_simcore.json-style
 * artifact for CI trend tracking; `--quick` shrinks the workloads for
 * smoke runs.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "core/server.hh"
#include "core/sweep.hh"
#include "net/checksum.hh"
#include "net/link.hh"
#include "net/traffic.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace halsim;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/**
 * A self-perpetuating one-shot chain: every firing re-enters
 * scheduleFnIn with a fresh capture, exactly like the link-delivery
 * and processor-finish paths.
 */
struct Chain
{
    EventQueue *eq;
    std::uint64_t *budget;
    Rng *rng;
    std::uint64_t pad = 0;   //!< sizes the capture like a PacketPtr hop

    void
    operator()()
    {
        if (*budget == 0)
            return;
        --*budget;
        eq->scheduleFnIn(Chain{*this}, 1 + (rng->next() & 255));
    }
};

/** Intrusive events that retime each other, leaving tombstones. */
struct Retimer
{
    CallbackEvent self;
    CallbackEvent *partner = nullptr;
    EventQueue *eq = nullptr;
    std::uint64_t *budget = nullptr;
    Rng *rng = nullptr;

    void
    fire()
    {
        if (*budget == 0)
            return;
        --*budget;
        // Retime the partner (deschedule + schedule: one tombstone),
        // then rearm ourselves.
        eq->reschedule(partner, eq->now() + 64 + (rng->next() & 127));
        eq->scheduleIn(&self, 32 + (rng->next() & 63));
    }
};

/** One full HAL run (DpdkFwd) timed end to end, in events/s. */
double
benchSingleRun(Tick measure)
{
    core::ServerConfig cfg;
    cfg.mode = core::Mode::Hal;
    cfg.function = funcs::FunctionId::DpdkFwd;

    EventQueue eq;
    core::ServerSystem sys(eq, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    sys.run(std::make_unique<net::ConstantRate>(90.0), 5 * kMs, measure);
    const double dt = secondsSince(t0);
    return static_cast<double>(eq.executed()) / dt;
}

double
benchEvents(std::uint64_t target)
{
    EventQueue eq;
    Rng rng(42);
    std::uint64_t budget = target;

    constexpr int kChains = 64;
    for (int i = 0; i < kChains; ++i)
        eq.scheduleFn(Chain{&eq, &budget, &rng, 0},
                      1 + (rng.next() & 255));

    constexpr int kRetimers = 16;
    Retimer retimers[kRetimers];
    for (int i = 0; i < kRetimers; ++i) {
        Retimer &r = retimers[i];
        r.partner = &retimers[(i + 1) % kRetimers].self;
        r.eq = &eq;
        r.budget = &budget;
        r.rng = &rng;
        r.self.setCallback([&r] { r.fire(); });
    }
    for (int i = 0; i < kRetimers; ++i)
        eq.scheduleIn(&retimers[i].self, 16 + (rng.next() & 15));

    const auto t0 = std::chrono::steady_clock::now();
    eq.run();
    const double dt = secondsSince(t0);
    for (Retimer &r : retimers)
        if (r.self.scheduled())
            eq.deschedule(&r.self);
    return static_cast<double>(eq.executed()) / dt;
}

struct NullSink : net::PacketSink
{
    std::uint64_t frames = 0;

    void
    accept(net::PacketPtr pkt) override
    {
        ++frames;
        (void)pkt;   // destroyed here: the teardown half of the pool
    }
};

double
benchPackets(Tick sim_duration)
{
    EventQueue eq;
    NullSink sink;
    net::Link link(eq,
                   {.rate_gbps = 100.0, .propagation = 500 * kNs,
                    .max_queue = 4096, .name = "bench"},
                   sink);
    net::TrafficGenerator::Config gc;
    gc.frame_bytes = net::kMtuFrameBytes;
    net::TrafficGenerator gen(eq, gc,
                              std::make_unique<net::ConstantRate>(100.0),
                              link);

    const auto t0 = std::chrono::steady_clock::now();
    gen.start(sim_duration);
    eq.run();
    const double dt = secondsSince(t0);
    return static_cast<double>(sink.frames) / dt;
}

double
benchChecksum(std::uint64_t iters)
{
    std::uint8_t frame[net::kMtuFrameBytes];
    Rng rng(7);
    for (auto &b : frame)
        b = static_cast<std::uint8_t>(rng.next());

    volatile std::uint16_t guard = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
        frame[0] = static_cast<std::uint8_t>(i);
        guard = static_cast<std::uint16_t>(
            guard ^ net::internetChecksum(frame, sizeof(frame)));
    }
    const double dt = secondsSince(t0);
    (void)guard;
    return static_cast<double>(iters) * sizeof(frame) / 1e6 / dt;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::uint64_t event_target = 4'000'000;
    Tick pkt_sim = 60 * kMs;
    Tick run_measure = 40 * kMs;
    std::uint64_t cksum_iters = 400'000;
    core::ArgRegistrar reg(argv[0],
                           "Simulator-core microbenchmark (wall-clock "
                           "perf baseline).");
    reg.value("--json", "PATH", "write the metrics artifact here",
              [&](const std::string &v) -> std::string {
                  json_path = v;
                  return {};
              });
    reg.flag("--quick", "CI-sized workloads", [&] {
        event_target /= 10;
        pkt_sim /= 10;
        run_measure /= 4;
        cksum_iters /= 10;
    });
    reg.parse(argc, argv);

    const std::pair<const char *, double> metrics[] = {
        {"events_chain_per_sec", benchEvents(event_target)},
        {"sim_packets_per_sec", benchPackets(pkt_sim)},
        {"checksum_mb_per_sec", benchChecksum(cksum_iters)},
        {"single_run_events_per_sec", benchSingleRun(run_measure)},
    };

    std::printf("bench_sim_core\n");
    for (const auto &[name, value] : metrics)
        std::printf("  %-40s %14.0f\n", name, value);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n"
                        "  \"bench\": \"sim_core\",\n"
                        "  \"metrics\": {\n");
        const std::size_t n = std::size(metrics);
        for (std::size_t i = 0; i < n; ++i)
            std::fprintf(f, "    \"%s\": %.0f%s\n", metrics[i].first,
                         metrics[i].second, i + 1 < n ? "," : "");
        std::fprintf(f,
                     "  },\n"
                     "  \"workload\": {\n"
                     "    \"event_target\": %" PRIu64 ",\n"
                     "    \"packet_sim_ms\": %" PRIu64 ",\n"
                     "    \"single_run_measure_ms\": %" PRIu64 ",\n"
                     "    \"checksum_iters\": %" PRIu64 "\n"
                     "  }\n"
                     "}\n",
                     event_target,
                     static_cast<std::uint64_t>(pkt_sim / kMs),
                     static_cast<std::uint64_t>(run_measure / kMs),
                     cksum_iters);
        std::fclose(f);
    }
    return 0;
}
