/**
 * @file
 * Ablation: the traffic director's split discipline. The paper says
 * the director takes excess packets "in a round-robin fashion"; we
 * compare a byte-accurate token bucket (default) against that
 * literal per-packet round-robin, plus the token bucket's depth
 * (burst tolerance toward the SNIC), under steady and bursty load.
 *
 * All (split, workload) points are independent and run through the
 * parallel sweep harness: `--threads all`, `--json PATH`,
 * `--stats-out PATH`, `--trace PATH`.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"

using namespace halsim;
using namespace halsim::bench;
using namespace halsim::core;

namespace {

const struct
{
    const char *name;
    SplitMode mode;
} kSplits[] = {
    {"token-bucket", SplitMode::TokenBucket},
    {"round-robin", SplitMode::RoundRobin},
    {"flow-affinity", SplitMode::FlowAffinity},
};

SweepPoint
splitPoint(const char *name, SplitMode mode, bool trace)
{
    ServerConfig cfg = ServerConfig::halDefault();
    cfg.split_mode = mode;

    if (trace)
        return {.cfg = cfg, .trace = net::TraceKind::Hadoop,
                .measure = 300 * kMs, .resample = 2 * kMs,
                .label = std::string("hadoop:") + name};
    return point(cfg, 70.0, 20 * kMs, 100 * kMs,
                 std::string("const70:") + name);
}

} // namespace

int
bench::ablation_director(const SweepOptions &opts, bool, Out &out)
{
    std::vector<SweepPoint> points;
    for (bool trace : {false, true})
        for (const auto &s : kSplits)
            points.push_back(splitPoint(s.name, s.mode, trace));

    const std::vector<RunResult> results = runSweep(points, opts);

    std::size_t i = 0;
    for (bool trace : {false, true}) {
        banner(out, std::string("director ablation: NAT, ") +
                    (trace ? "hadoop trace" : "70 Gbps constant"));
        out.printf("%-12s | %7s %9s %8s %8s\n", "split", "tp", "p99us",
                   "drops", "snic%");
        for (const auto &s : kSplits) {
            const RunResult &r = results[i++];
            const double snic_share =
                100.0 * static_cast<double>(r.snic_frames) /
                static_cast<double>(r.snic_frames + r.host_frames + 1);
            out.printf("%-12s | %7.1f %9.1f %8llu %7.1f%%\n", s.name,
                       r.delivered_gbps, r.p99_us,
                       static_cast<unsigned long long>(r.drops),
                       snic_share);
        }
    }
    out.printf("\nexpectation: both sustain throughput; round-robin "
               "tracks the monitor epoch so it reacts a little more "
               "coarsely to bursts\n");
    return 0;
}
