/**
 * @file
 * Scenario: produce a machine-readable capacity report — sweep the
 * offered rate across all four deployments and emit CSV (stdout):
 * mode and function label columns, then every RunResult field, ready
 * for a spreadsheet or plotting pipeline.
 *
 *   ./capacity_report > capacity.csv
 */

#include <iostream>
#include <memory>

#include "core/server.hh"

using namespace halsim;
using namespace halsim::core;

int
main()
{
    std::cout << "mode,function,";
    RunResult::csvHeader(std::cout);
    std::cout << "\n";

    for (funcs::FunctionId fn :
         {funcs::FunctionId::Nat, funcs::FunctionId::Rem}) {
        for (Mode mode :
             {Mode::HostOnly, Mode::SnicOnly, Mode::Hal, Mode::Slb}) {
            for (double rate : {10.0, 30.0, 50.0, 70.0, 90.0}) {
                ServerConfig cfg;
                cfg.mode = mode;
                cfg.function = fn;
                EventQueue eq;
                ServerSystem sys(eq, cfg);
                const RunResult r = sys.run(
                    std::make_unique<net::ConstantRate>(rate), 15 * kMs,
                    60 * kMs);
                std::cout << modeName(mode) << ","
                          << funcs::functionName(fn) << ",";
                r.toCsvRow(std::cout);
                std::cout << "\n";
            }
        }
    }
    return 0;
}
