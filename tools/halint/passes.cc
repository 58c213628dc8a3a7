#include "passes.hh"

#include <deque>
#include <set>

namespace halint {

namespace {

// --------------------------------------------------------------------
// HAL-W008: transitive hotpath allocation
// --------------------------------------------------------------------

/** Candidate callees for one call site (indices into idx.funcs). */
std::vector<std::size_t>
resolveCall(const RepoIndex &idx, const CallSite &cs,
            const FuncDef &caller)
{
    const auto it = idx.byName.find(cs.callee);
    if (it == idx.byName.end())
        return {};
    std::vector<std::size_t> out;
    if (!cs.qualifier.empty()) {
        // Explicit Class::fn — only that class's definitions.
        for (std::size_t fi : it->second)
            if (idx.funcs[fi].klass == cs.qualifier)
                out.push_back(fi);
        return out;
    }
    if (!cs.member) {
        // Bare call: prefer a method of the caller's own class, else
        // free functions, else any definition of that name.
        for (std::size_t fi : it->second)
            if (!caller.klass.empty() &&
                idx.funcs[fi].klass == caller.klass)
                out.push_back(fi);
        if (!out.empty())
            return out;
    }
    // Member (or unresolved bare) call: no receiver type at lexer
    // level, so take the union of same-named definitions — but give
    // up on names too common to carry a meaningful edge.
    if (it->second.size() > kMaxCallCandidates)
        return {};
    return it->second;
}

std::string
chainString(const RepoIndex &idx, const std::vector<std::size_t> &chain)
{
    std::string s;
    for (std::size_t k = 0; k < chain.size(); ++k) {
        const FuncDef &f = idx.funcs[chain[k]];
        if (k)
            s += " -> ";
        s += !f.qual.empty() ? f.qual : f.name;
        if (k + 1 < chain.size()) {
            // Edge provenance: where in this frame the next call is.
            const FuncDef &next = idx.funcs[chain[k + 1]];
            for (const CallSite &cs : f.calls)
                if (cs.callee == next.name) {
                    s += " [" + idx.units[f.unit].path + ":" +
                         std::to_string(cs.line) + "]";
                    break;
                }
        }
    }
    return s;
}

} // namespace

void
passTransitiveHotpath(const RepoIndex &idx,
                      std::vector<Diagnostic> &diags)
{
    // Dedup: one report per (root, allocation site); BFS gives the
    // shortest why-chain.
    std::set<std::pair<std::size_t, std::pair<std::size_t, int>>> seen;
    for (std::size_t root = 0; root < idx.funcs.size(); ++root) {
        if (!idx.funcs[root].hotpath)
            continue;
        std::set<std::size_t> visited{root};
        std::deque<std::vector<std::size_t>> queue;
        queue.push_back({root});
        while (!queue.empty()) {
            const std::vector<std::size_t> chain = queue.front();
            queue.pop_front();
            if (chain.size() > 8) // depth guard vs pathological graphs
                continue;
            const FuncDef &cur = idx.funcs[chain.back()];
            if (chain.size() > 1) {
                // Allocations in a *callee* body: the root's own
                // allocations are already HAL-W004.
                const Lexed &lx = idx.units[cur.unit].lx;
                for (const AllocSite &a :
                     findAllocations(lx, cur.bodyBegin, cur.bodyEnd)) {
                    const auto key = std::make_pair(
                        root, std::make_pair(cur.unit, a.line));
                    if (!seen.insert(key).second)
                        continue;
                    const FuncDef &rf = idx.funcs[root];
                    diags.push_back(
                        {idx.units[cur.unit].path, a.line,
                         kRuleTransitiveAlloc,
                         a.what + " reachable from '// halint: "
                                  "hotpath' root '" +
                             (!rf.qual.empty() ? rf.qual : rf.name) +
                             "' (" + idx.units[rf.unit].path + ":" +
                             std::to_string(rf.line) +
                             ") via call chain: " +
                             chainString(idx, chain) +
                             " — hot paths must be allocation-free "
                             "at steady state; preallocate, pool, or "
                             "justify with allow(HAL-W008) at the "
                             "allocation site (DESIGN.md §14)"});
                }
            }
            for (const CallSite &cs : cur.calls) {
                for (std::size_t fi : resolveCall(idx, cs, cur)) {
                    if (visited.count(fi) != 0)
                        continue;
                    // A callee that is itself a hotpath root reports
                    // its own subtree under its own (shorter) chains.
                    if (idx.funcs[fi].hotpath)
                        continue;
                    visited.insert(fi);
                    std::vector<std::size_t> next = chain;
                    next.push_back(fi);
                    queue.push_back(std::move(next));
                }
            }
        }
    }
}

} // namespace halint
