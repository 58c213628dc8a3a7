/**
 * @file
 * halint repo indexer: a heuristic, lexer-level symbol table and
 * function call graph over a set of translation units (DESIGN.md
 * §14). Same philosophy as the per-file scanners — no libClang, no
 * template instantiation, no overload resolution — just enough
 * structure recovery (namespaces, classes, function bodies, call
 * sites) for the cross-TU pass: HAL-W008 propagates
 * `// halint: hotpath` over call edges.
 *
 * Known limits (deliberate): calls through function pointers,
 * virtual dispatch, and macros produce no edges; overloads and
 * same-named methods on different classes resolve to the union of
 * candidates (capped, see kMaxCallCandidates).
 */

#ifndef HALSIM_TOOLS_HALINT_INDEX_HH
#define HALSIM_TOOLS_HALINT_INDEX_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "halint.hh"
#include "lexer.hh"

namespace halint {

/** A call site inside a function body. */
struct CallSite
{
    std::string callee;    //!< last name segment
    std::string qualifier; //!< "BatchEvent" for BatchEvent::f(); ""
    bool member = false;   //!< reached via '.' or '->'
    int line = 0;
    std::size_t tok = 0;   //!< token index of the callee name
};

/** A function (or method) definition recovered from one file. */
struct FuncDef
{
    std::size_t unit = 0;  //!< index into RepoIndex::units
    std::string name;      //!< last segment ("append")
    std::string qual;      //!< best-effort ("BatchEvent::append")
    std::string klass;     //!< enclosing/qualifying class, "" if free
    int line = 0;
    std::size_t bodyBegin = 0; //!< token index of the opening '{'
    std::size_t bodyEnd = 0;   //!< token index of the closing '}'
    bool hotpath = false;      //!< `// halint: hotpath` annotated
    int hotpathLine = 0;
    std::vector<CallSite> calls;
};

/** One lexed translation unit. */
struct Unit
{
    std::string path;
    Lexed lx;
};

struct RepoIndex
{
    std::vector<Unit> units;
    std::vector<FuncDef> funcs;
    /** name -> indices into funcs, for call resolution. */
    std::map<std::string, std::vector<std::size_t>> byName;
};

/** Member-call resolution gives up beyond this many same-named
 *  candidates: names like size()/reset() are too common to carry a
 *  meaningful edge. */
inline constexpr std::size_t kMaxCallCandidates = 4;

/**
 * Lex every file and recover the symbol table + call graph. The
 * lexed units are kept inside the index so passes (and the per-file
 * scanners) share one lex per file.
 */
RepoIndex buildIndex(const std::vector<SourceFile> &files);

/** An allocation site found by the shared W004/W008 detector. */
struct AllocSite
{
    int line = 0;
    std::string what; //!< "operator new", "container .push_back()"...
};

/**
 * Scan toks[begin..end] for allocations: operator new (placement new
 * exempt), malloc-family calls, std::make_unique/make_shared, and
 * growth calls on containers (.push_back/.reserve/...).
 */
std::vector<AllocSite> findAllocations(const Lexed &lx,
                                       std::size_t begin,
                                       std::size_t end);

} // namespace halint

#endif // HALSIM_TOOLS_HALINT_INDEX_HH
