/**
 * @file
 * halint engine core: per-file rule scanners (HAL-W001..W003,
 * W005..W007) and the suppression/directive machinery. The lexer
 * lives in lexer.cc, the report formats in output.cc.
 */

#include "halint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "lexer.hh"

namespace halint {

namespace {

// --------------------------------------------------------------------
// Per-file rule scanners
// --------------------------------------------------------------------

struct Scanner
{
    const std::string &path;
    const Lexed &lx;
    std::vector<Diagnostic> diags;

    bool inSrc;
    bool isHeader;

    Scanner(const std::string &p, const Lexed &l) : path(p), lx(l)
    {
        inSrc = p.rfind("src/", 0) == 0 ||
                p.find("/src/") != std::string::npos;
        auto ends = [&](std::string_view suf) {
            return p.size() >= suf.size() &&
                   p.compare(p.size() - suf.size(), suf.size(), suf) == 0;
        };
        isHeader = ends(".hh") || ends(".h") || ends(".hpp");
    }

    void
    add(const char *rule, int line, std::string msg)
    {
        diags.push_back({path, line, rule, std::move(msg)});
    }

    const Tok *
    at(std::size_t i) const
    {
        return i < lx.toks.size() ? &lx.toks[i] : nullptr;
    }

    bool
    nextIs(std::size_t i, std::string_view punct) const
    {
        const Tok *t = at(i + 1);
        return t != nullptr && t->kind == TokKind::Punct &&
               t->text == punct;
    }

    /**
     * True when toks[i] is a plausible call of a global/std function:
     * followed by '(' and not reached through '.', '->', or a
     * non-std '::' qualifier (SomeClass::time() is not wall clock).
     */
    bool
    bareOrStdCall(std::size_t i) const
    {
        if (!nextIs(i, "("))
            return false;
        if (i == 0)
            return true;
        const Tok &prev = lx.toks[i - 1];
        if (prev.kind == TokKind::Punct &&
            (prev.text == "." || prev.text == "->"))
            return false;
        if (prev.kind == TokKind::Punct && prev.text == "::") {
            const Tok *q = at(i - 2);
            return q != nullptr && q->kind == TokKind::Ident &&
                   q->text == "std";
        }
        return true;
    }

    // ---- HAL-W001: wall-clock / host-time sources -------------------
    void
    wallClock()
    {
        static const std::set<std::string> kIdents{
            "gettimeofday", "clock_gettime", "timespec_get", "ftime",
            "system_clock", "high_resolution_clock"};
        for (std::size_t i = 0; i < lx.toks.size(); ++i) {
            const Tok &t = lx.toks[i];
            if (t.kind == TokKind::PP) {
                if (t.text.find("include") != std::string::npos &&
                    (t.text.find("<ctime>") != std::string::npos ||
                     t.text.find("time.h>") != std::string::npos))
                    add(kRuleWallClock, t.line,
                        "include of a host time header — simulated "
                        "time comes from EventQueue::now(); wall clock "
                        "breaks bit-reproducible runs (DESIGN.md §9)");
                continue;
            }
            if (t.kind != TokKind::Ident)
                continue;
            const bool named = kIdents.count(t.text) != 0;
            const bool call = (t.text == "time" || t.text == "clock") &&
                              bareOrStdCall(i);
            if (named || call)
                add(kRuleWallClock, t.line,
                    "wall-clock time source '" + t.text +
                        "' — simulated time comes from "
                        "EventQueue::now(); wall clock breaks "
                        "bit-reproducible runs (DESIGN.md §9)");
        }
    }

    // ---- HAL-W002: unseeded / stdlib RNG (src/ only) ----------------
    void
    rng()
    {
        if (!inSrc)
            return;
        static const std::set<std::string> kIdents{
            "srand",        "random_device",         "random_shuffle",
            "mt19937",      "mt19937_64",            "minstd_rand",
            "minstd_rand0", "default_random_engine", "knuth_b",
            "ranlux24",     "ranlux48"};
        for (std::size_t i = 0; i < lx.toks.size(); ++i) {
            const Tok &t = lx.toks[i];
            if (t.kind == TokKind::PP) {
                if (t.text.find("include") != std::string::npos &&
                    t.text.find("<random>") != std::string::npos)
                    add(kRuleRng, t.line,
                        "include of <random> — stdlib generators and "
                        "distributions differ across implementations; "
                        "use halsim::Rng (src/sim/rng.hh) seeded from "
                        "the run config (DESIGN.md §9)");
                continue;
            }
            if (t.kind != TokKind::Ident)
                continue;
            const bool named = kIdents.count(t.text) != 0;
            const bool call = t.text == "rand" && bareOrStdCall(i);
            if (named || call)
                add(kRuleRng, t.line,
                    "non-deterministic RNG '" + t.text +
                        "' — use halsim::Rng (src/sim/rng.hh) seeded "
                        "from the run config so results replay "
                        "bit-identically (DESIGN.md §9)");
        }
    }

    // ---- HAL-W003: unordered-container iteration (src/ only) --------
    void
    unordered()
    {
        if (!inSrc)
            return;
        static const std::set<std::string> kIdents{
            "unordered_map", "unordered_set", "unordered_multimap",
            "unordered_multiset"};
        for (const Tok &t : lx.toks) {
            const bool use =
                t.kind == TokKind::Ident && kIdents.count(t.text) != 0;
            const bool incl =
                t.kind == TokKind::PP &&
                t.text.find("include") != std::string::npos &&
                (t.text.find("<unordered_map>") != std::string::npos ||
                 t.text.find("<unordered_set>") != std::string::npos);
            if (use || incl)
                add(kRuleUnordered, t.line,
                    "unordered container — iteration order is "
                    "implementation-defined and can leak into "
                    "simulation state; use alg::FixedMap "
                    "(src/alg/fixed_map.hh) or an ordered container "
                    "(DESIGN.md §9)");
        }
    }

    // ---- HAL-W005: impure parallelFor / runSweep callbacks ----------
    void
    parallelPurity()
    {
        for (std::size_t i = 0; i < lx.toks.size(); ++i) {
            const Tok &t = lx.toks[i];
            if (t.kind != TokKind::Ident ||
                (t.text != "parallelFor" && t.text != "runSweep") ||
                !nextIs(i, "("))
                continue;
            int depth = 0;
            bool sawLambda = false;
            for (std::size_t j = i + 1; j < lx.toks.size(); ++j) {
                const Tok &u = lx.toks[j];
                if (u.kind == TokKind::Punct) {
                    if (u.text == "(")
                        ++depth;
                    else if (u.text == ")" && --depth == 0)
                        break;
                    else if (u.text == "[")
                        sawLambda = true;
                    continue;
                }
                if (!sawLambda || u.kind != TokKind::Ident)
                    continue;
                if (u.text == "mutable")
                    add(kRuleParallelPurity, u.line,
                        "mutable lambda passed to " + t.text +
                            " — callbacks run concurrently and must be "
                            "pure over disjoint per-index state "
                            "(DESIGN.md §9)");
                else if (u.text == "static")
                    add(kRuleParallelPurity, u.line,
                        "function-local static inside a " + t.text +
                            " callback — statics are shared across "
                            "workers and race (DESIGN.md §9)");
            }
        }
    }

    // ---- HAL-W007: thread primitive in the DES core ------------------
    /**
     * The event engine and the packet datapath (src/sim/, src/net/)
     * are single-threaded by design: determinism rests on one event
     * loop owning all simulation state. Any thread-synchronization
     * primitive there is a design change and needs an explicit
     * allow(HAL-W007) with a reason (the sweep harness in
     * src/sim/parallel.cc is the one sanctioned user).
     */
    void
    threadPrimitive()
    {
        const bool scoped =
            path.rfind("src/sim/", 0) == 0 ||
            path.find("/src/sim/") != std::string::npos ||
            path.rfind("src/net/", 0) == 0 ||
            path.find("/src/net/") != std::string::npos;
        if (!scoped)
            return;
        static const std::set<std::string> kPrims{
            "atomic",        "atomic_flag",
            "atomic_ref",    "mutex",
            "shared_mutex",  "recursive_mutex",
            "timed_mutex",   "condition_variable",
            "condition_variable_any", "thread",
            "jthread",       "barrier",
            "latch",         "counting_semaphore",
            "binary_semaphore",       "promise",
            "async"};
        for (const Tok &t : lx.toks)
            if (t.kind == TokKind::Ident && kPrims.count(t.text) != 0)
                add(kRuleThreadPrimitive, t.line,
                    "thread primitive '" + t.text +
                        "' in the single-threaded DES core — one event "
                        "loop owns all simulation state (DESIGN.md §13)");
    }

    // ---- HAL-W006: header hygiene -----------------------------------
    void
    headerHygiene()
    {
        if (!isHeader)
            return;
        bool pragmaOnce = false, sawIfndef = false, sawDefine = false;
        for (const Tok &t : lx.toks) {
            if (t.kind != TokKind::PP)
                continue;
            std::string squeezed;
            for (char c : t.text)
                if (!std::isspace(static_cast<unsigned char>(c)))
                    squeezed += c;
            if (squeezed.rfind("#pragmaonce", 0) == 0)
                pragmaOnce = true;
            else if (squeezed.rfind("#ifndef", 0) == 0)
                sawIfndef = true;
            else if (sawIfndef && squeezed.rfind("#define", 0) == 0)
                sawDefine = true;
        }
        if (!pragmaOnce && !(sawIfndef && sawDefine))
            add(kRuleHeaderHygiene, 1,
                "header has no include guard or #pragma once "
                "(DESIGN.md §9)");
        for (std::size_t i = 0; i + 1 < lx.toks.size(); ++i)
            if (lx.toks[i].kind == TokKind::Ident &&
                lx.toks[i].text == "using" &&
                lx.toks[i + 1].kind == TokKind::Ident &&
                lx.toks[i + 1].text == "namespace")
                add(kRuleHeaderHygiene, lx.toks[i].line,
                    "'using namespace' in a header leaks the namespace "
                    "into every includer (DESIGN.md §9)");
    }
};

std::vector<Diagnostic>
runScanners(const std::string &path, const Lexed &lx)
{
    Scanner s(path, lx);
    s.wallClock();
    s.rng();
    s.unordered();
    s.parallelPurity();
    s.headerHygiene();
    s.threadPrimitive();
    return std::move(s.diags);
}

/**
 * Per-file suppression map: an allow(HAL-Wnnn) covers its own line
 * (trailing comment) and the next line (comment above the statement).
 * Malformed directives are appended to @p diags as HAL-W000.
 */
std::map<int, std::set<std::string>>
directiveMap(const std::string &path, const Lexed &lx,
             std::vector<Diagnostic> &diags)
{
    std::map<int, std::set<std::string>> allowAt;
    for (const Directive &d : lx.directives) {
        if (d.malformed) {
            diags.push_back({path, d.line, kRuleDirective,
                             "malformed halint directive: " + d.error});
            continue;
        }
        for (const std::string &r : d.allow) {
            allowAt[d.line].insert(r);
            allowAt[d.line + 1].insert(r);
        }
    }
    return allowAt;
}

void
sortDiags(std::vector<Diagnostic> &diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
}

} // namespace

std::vector<Diagnostic>
lintSource(const std::string &path, std::string_view content)
{
    const Lexed lx = lex(content);
    std::vector<Diagnostic> diags = runScanners(path, lx);
    const auto allowAt = directiveMap(path, lx, diags);
    std::vector<Diagnostic> kept;
    for (Diagnostic &d : diags) {
        const auto it = allowAt.find(d.line);
        const bool suppressed = d.rule != kRuleDirective &&
                                it != allowAt.end() &&
                                it->second.count(d.rule) != 0;
        if (!suppressed)
            kept.push_back(std::move(d));
    }
    sortDiags(kept);
    return kept;
}

std::string
ruleTable()
{
    return "HAL-W000  malformed halint directive or unreadable path\n"
           "HAL-W001  wall-clock/host time source (simulated time only)\n"
           "HAL-W002  stdlib/unseeded RNG in src/ (use halsim::Rng)\n"
           "HAL-W003  unordered container in src/ (use alg::FixedMap)\n"
           "HAL-W005  impure parallelFor/runSweep callback\n"
           "HAL-W006  header hygiene (guard, 'using namespace')\n"
           "HAL-W007  thread primitive in the DES core (src/sim, "
           "src/net)\n"
           "Suppress with: // halint: allow(HAL-Wnnn) <reason>\n";
}

std::vector<Diagnostic>
lintPaths(const std::string &base, const std::vector<std::string> &roots)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    std::vector<Diagnostic> diags;
    auto wanted = [](const fs::path &p) {
        const std::string e = p.extension().string();
        return e == ".cc" || e == ".hh" || e == ".cpp" || e == ".h" ||
               e == ".hpp";
    };
    for (const std::string &r : roots) {
        std::error_code ec;
        const fs::path root(r);
        if (fs::is_directory(root, ec)) {
            for (fs::recursive_directory_iterator it(root, ec), end;
                 !ec && it != end; it.increment(ec))
                if (it->is_regular_file(ec) && wanted(it->path()))
                    files.push_back(it->path().string());
        } else if (fs::is_regular_file(root, ec)) {
            files.push_back(r);
        } else {
            diags.push_back({r, 0, kRuleDirective,
                             "path does not exist or is unreadable"});
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    const std::string prefix =
        base.empty() || base == "." ? "" : base + "/";
    for (const std::string &f : files) {
        std::ifstream in(f, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        if (!in) {
            diags.push_back({f, 0, kRuleDirective, "cannot read file"});
            continue;
        }
        const bool under = !prefix.empty() && f.rfind(prefix, 0) == 0;
        for (Diagnostic &d :
             lintSource(under ? f.substr(prefix.size()) : f, buf.str()))
            diags.push_back(std::move(d));
    }
    sortDiags(diags);
    return diags;
}

} // namespace halint
