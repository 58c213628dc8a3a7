/**
 * @file
 * halint cross-TU analysis passes (DESIGN.md §14). These run over
 * the RepoIndex that buildIndex() recovers, unlike the per-file rule
 * scanners in halint.cc:
 *
 *  - HAL-W008: transitive hotpath allocation — walk the call graph
 *    from every `// halint: hotpath` root and flag allocations in
 *    reachable callees, with the call chain in the diagnostic.
 *  - HAL-W010: stats/results/schema drift — RunResult kFields and
 *    registered stats paths cross-checked against
 *    tools/bench_schema.json in both directions.
 */

#ifndef HALSIM_TOOLS_HALINT_PASSES_HH
#define HALSIM_TOOLS_HALINT_PASSES_HH

#include <string>
#include <vector>

#include "halint.hh"
#include "index.hh"

namespace halint {

void passTransitiveHotpath(const RepoIndex &idx,
                           std::vector<Diagnostic> &diags);

/**
 * @p schemaPath / @p schemaContent carry tools/bench_schema.json;
 * empty content skips the pass (no schema in the lint set).
 */
void passSchemaDrift(const RepoIndex &idx,
                     const std::string &schemaPath,
                     const std::string &schemaContent,
                     std::vector<Diagnostic> &diags);

} // namespace halint

#endif // HALSIM_TOOLS_HALINT_PASSES_HH
