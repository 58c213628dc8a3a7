/**
 * @file
 * Fig. 8 reproduction: the web / cache / Hadoop datacenter traffic
 * traces — log-normal rate processes with the paper's (mu, sigma),
 * truncated at the 100 Gbps line rate. Prints the distribution
 * parameters, analytic and empirical means, and a rate snapshot.
 *
 * Paper anchors: (mu, sigma) = web -1.37/1.97, cache -9/7.55,
 * hadoop -4.18/6.56; average rates 1.6 / 5.2 / 10.9 Gbps.
 */

#include <cstdio>

#include "bench_common.hh"
#include "net/traffic.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace halsim;
using namespace halsim::net;

int
bench::fig8_traces(const core::SweepOptions &, bool, bench::Out &out)
{
    out.printf("=== Fig. 8: datacenter traffic traces ===\n");
    out.printf("%-8s %8s %8s | %9s %9s %9s | %6s\n", "trace", "mu",
               "sigma", "analytic", "empirical", "paperAvg", "p(cap)");

    const struct
    {
        TraceKind kind;
        double paper_avg;
    } rows[] = {
        {TraceKind::Web, 1.6},
        {TraceKind::Cache, 5.2},
        {TraceKind::Hadoop, 10.9},
    };

    for (const auto &row : rows) {
        auto proc = makeTrace(row.kind);
        auto *ln = dynamic_cast<LognormalRate *>(proc.get());
        Rng rng(2024);
        Accumulator acc;
        std::uint64_t at_cap = 0;
        const int n = 500000;
        for (int i = 0; i < n; ++i) {
            const double r = proc->sample(rng);
            acc.sample(r);
            at_cap += r >= 99.999;
        }
        out.printf("%-8s %8.2f %8.2f | %9.2f %9.2f %9.2f | %5.1f%%\n",
                   traceName(row.kind), ln->mu(), ln->sigma(),
                   proc->meanGbps(), acc.mean(), row.paper_avg,
                   100.0 * at_cap / n);
    }

    // 100-epoch snapshot like the figure's time series.
    out.printf("\nrate snapshots (Gbps per epoch):\n");
    for (const auto &row : rows) {
        auto proc = makeTrace(row.kind);
        Rng rng(7);
        out.printf("%-8s:", traceName(row.kind));
        for (int i = 0; i < 16; ++i)
            out.printf(" %6.2f", proc->sample(rng));
        out.printf("\n");
    }
    return 0;
}
