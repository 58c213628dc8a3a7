/**
 * @file
 * Self-test of the sampling wrapper: SampledRate must forward
 * sample()/meanGbps()/name() exactly, and a short run of every workload
 * with the wrapper must produce the same RunResult as one without it.
 * Exits 0 when every check holds. perfbench/selftest.py runs it along
 * with the metric-name and seed checks on the benchmark's output.
 */

#include <cstdio>
#include <memory>
#include <string>

#include "sampled_rate.hh"
#include "sim/rng.hh"
#include "workload.hh"

using namespace perfbench;
using namespace halsim;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

void
delegationMatches(const std::string &label,
                  std::unique_ptr<net::RateProcess> plain,
                  std::unique_ptr<net::RateProcess> inner)
{
    EventQueue eq;
    std::size_t probes = 0;
    SampledRate wrapped(std::move(inner), eq,
                        [&probes](const QueueSample &) { ++probes; });
    Rng a(42), b(42);
    bool same = true;
    for (int i = 0; i < 200; ++i)
        same = same && plain->sample(a) == wrapped.sample(b);
    same = same && a.next() == b.next();
    expect(same && probes == 200, label + ": sample() sequence and Rng");
    expect(plain->meanGbps() == wrapped.meanGbps(), label + ": meanGbps()");
    expect(plain->name() == wrapped.name(), label + ": name()");
}

} // namespace

int
main()
{
    delegationMatches("constant",
                      std::make_unique<net::ConstantRate>(60.0),
                      std::make_unique<net::ConstantRate>(60.0));
    delegationMatches("diurnal",
                      std::make_unique<net::DiurnalRate>(1.0, 11.0, 40),
                      std::make_unique<net::DiurnalRate>(1.0, 11.0, 40));
    delegationMatches("lognormal", net::makeTrace(net::TraceKind::Web),
                      net::makeTrace(net::TraceKind::Web));

    for (const std::string &name : workloadNames()) {
        const Workload w = makeWorkload(name, 3, 0.05);
        RunOptions sampled;
        sampled.sample = true;
        const RunOutcome plain = runOnce(w);
        const RunOutcome wrapped = runOnce(w, sampled);
        expect(resultJson(plain.result) == resultJson(wrapped.result),
               name + ": RunResult identical with and without wrapper");
        expect(!wrapped.samples.empty(), name + ": wrapper sampled");
        expect(plain.events == wrapped.events,
               name + ": events executed identical");
    }

    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}
