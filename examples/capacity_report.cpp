/**
 * @file
 * Scenario: produce a machine-readable capacity report — sweep the
 * offered rate across all four deployments and print one sweep row
 * per point as a JSON line (stdout): label, mode, function and
 * rate_gbps, then every RunResult field, the same rows a bench's
 * `--json` artifact carries.
 *
 *   ./capacity_report > capacity.jsonl
 */

#include <iostream>
#include <string>
#include <vector>

#include "core/sweep.hh"

using namespace halsim;
using namespace halsim::core;

int
main()
{
    std::vector<SweepPoint> points;
    for (funcs::FunctionId fn :
         {funcs::FunctionId::Nat, funcs::FunctionId::Rem}) {
        for (Mode mode :
             {Mode::HostOnly, Mode::SnicOnly, Mode::Hal, Mode::Slb}) {
            for (double rate : {10.0, 30.0, 50.0, 70.0, 90.0}) {
                SweepPoint p;
                p.cfg.mode = mode;
                p.cfg.function = fn;
                p.rate_gbps = rate;
                p.warmup = 15 * kMs;
                p.measure = 60 * kMs;
                p.label = std::string(modeName(mode)) + "/" +
                          funcs::functionName(fn) + "@" +
                          std::to_string(static_cast<int>(rate));
                points.push_back(p);
            }
        }
    }
    const std::vector<RunResult> results = runSweep(points);
    for (std::size_t i = 0; i < points.size(); ++i)
        std::cout << sweepRowJson(points[i], results[i]) << "\n";
    return 0;
}
