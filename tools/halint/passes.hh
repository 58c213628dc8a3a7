/**
 * @file
 * halint cross-TU analysis pass (DESIGN.md §14). It runs over the
 * RepoIndex that buildIndex() recovers, unlike the per-file rule
 * scanners in halint.cc:
 *
 *  - HAL-W008: transitive hotpath allocation — walk the call graph
 *    from every `// halint: hotpath` root and flag allocations in
 *    reachable callees, with the call chain in the diagnostic.
 */

#ifndef HALSIM_TOOLS_HALINT_PASSES_HH
#define HALSIM_TOOLS_HALINT_PASSES_HH

#include <vector>

#include "halint.hh"
#include "index.hh"

namespace halint {

void passTransitiveHotpath(const RepoIndex &idx,
                           std::vector<Diagnostic> &diags);

} // namespace halint

#endif // HALSIM_TOOLS_HALINT_PASSES_HH
