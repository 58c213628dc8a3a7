#include "passes.hh"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <set>

#include "json_mini.hh"

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

// --------------------------------------------------------------------
// HAL-W010: stats/results/schema drift
// --------------------------------------------------------------------

namespace {

bool
looksDotted(const std::string &t)
{
    if (t.find('.') == std::string::npos || t.empty())
        return false;
    if (t.front() == '.' || t.back() == '.')
        return false;
    for (char c : t)
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) ||
              c == '_' || c == '.'))
            return false;
    return true;
}

bool
looksSuffix(const std::string &t)
{
    if (t.size() < 2 || t.front() != '.')
        return false;
    for (char c : t.substr(1))
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) ||
              c == '_' || c == '.'))
            return false;
    return true;
}

bool
looksPlain(const std::string &t)
{
    if (t.empty())
        return false;
    for (char c : t)
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) || c == '_'))
            return false;
    return true;
}

std::string
stripLeadingDigits(const std::string &s)
{
    std::size_t k = 0;
    while (k < s.size() &&
           std::isdigit(static_cast<unsigned char>(s[k])))
        ++k;
    return s.substr(k);
}

/** Registered-path vocabulary harvested from src/ string literals. */
struct PathVocab
{
    std::set<std::string> dotted; //!< "server.snic", full paths too
    std::set<std::string> suffix; //!< ".frames", ".core"
    std::set<std::string> plain;  //!< "static", "snic_cpu"

    /** Can the tail @p rest be assembled from suffix/plain pieces
     *  (with std::to_string(i) digits interpolated between them)? */
    bool
    consumable(const std::string &rest) const
    {
        if (rest.empty())
            return true;
        if (suffix.count(rest) != 0)
            return true;
        // Any suffix literal that is a proper prefix of rest, with
        // optional digits after it ("\.core" + "3" + ".busy_frac").
        for (const std::string &sfx : suffix) {
            if (rest.size() <= sfx.size() ||
                rest.compare(0, sfx.size(), sfx) != 0)
                continue;
            if (consumable(
                    stripLeadingDigits(rest.substr(sfx.size()))))
                return true;
        }
        // Or "." + plain-literal segment (energy account names).
        if (rest.front() != '.')
            return false;
        const std::size_t dot = rest.find('.', 1);
        const std::string seg =
            rest.substr(1, dot == std::string::npos ? std::string::npos
                                                    : dot - 1);
        std::string stem = seg;
        while (!stem.empty() &&
               std::isdigit(static_cast<unsigned char>(stem.back())))
            stem.pop_back();
        if (plain.count(seg) == 0 && plain.count(stem) == 0)
            return false;
        return consumable(dot == std::string::npos
                              ? std::string()
                              : rest.substr(dot));
    }

    bool
    resolves(const std::string &path) const
    {
        if (dotted.count(path) != 0)
            return true;
        for (const std::string &pre : dotted) {
            if (path.size() <= pre.size() ||
                path.compare(0, pre.size(), pre) != 0)
                continue;
            if (consumable(
                    stripLeadingDigits(path.substr(pre.size()))))
                return true;
        }
        return false;
    }
};

bool
pathEndsWith(const std::string &p, std::string_view suf)
{
    return p.size() >= suf.size() &&
           p.compare(p.size() - suf.size(), suf.size(), suf) == 0;
}

/** Keys emitted by hand in sweepRowJson-style literals: scan raw
 *  string text for `"name":` / `\"name\":` occurrences. */
void
harvestJsonKeys(const std::string &raw, std::set<std::string> &out)
{
    std::string flat;
    flat.reserve(raw.size());
    for (char c : raw)
        if (c != '\\')
            flat += c;
    std::size_t pos = 0;
    while ((pos = flat.find('"', pos)) != std::string::npos) {
        std::size_t e = pos + 1;
        while (e < flat.size() &&
               (std::isalnum(static_cast<unsigned char>(flat[e])) ||
                flat[e] == '_'))
            ++e;
        if (e > pos + 1 && e + 1 < flat.size() && flat[e] == '"' &&
            flat[e + 1] == ':')
            out.insert(flat.substr(pos + 1, e - pos - 1));
        pos = e;
    }
}

} // namespace

void
passSchemaDrift(const RepoIndex &idx, const std::string &schemaPath,
                const std::string &schemaContent,
                std::vector<Diagnostic> &diags)
{
    if (schemaContent.empty())
        return;
    JsonParser jp{schemaContent};
    const JsonValue doc = jp.value();
    jp.ws();
    if (!jp.ok || doc.kind != JsonValue::Kind::Obj) {
        diags.push_back({schemaPath, jp.line, kRuleSchemaDrift,
                         "bench schema is not parseable JSON — the "
                         "kFields/stats cross-check cannot run"});
        return;
    }

    // --- gather the three source-side inventories ---------------------
    std::map<std::string, int> kFieldNames; // name -> line
    std::string resultsPath = "src/core/results.cc";
    std::set<std::string> labelKeys;
    PathVocab vocab;
    static const std::set<std::string> kRegCalls{
        "counter", "gauge",     "fnCounter", "fnGauge",
        "probe",   "histogram", "accumulator"};

    for (const Unit &u : idx.units) {
        const std::vector<Tok> &toks = u.lx.toks;
        const bool isResults = pathEndsWith(u.path, "results.cc");
        const bool isSweep = pathEndsWith(u.path, "sweep.cc");
        const bool inSrc = u.path.rfind("src/", 0) == 0 ||
                           u.path.find("/src/") != std::string::npos;
        if (isResults)
            resultsPath = u.path;

        // kFields literal names: Str tokens opening an aggregate
        // (`{"name", ...}`) inside the kFields initializer.
        if (isResults) {
            std::size_t start = toks.size();
            for (std::size_t i = 0; i + 1 < toks.size(); ++i)
                if (toks[i].kind == TokKind::Ident &&
                    toks[i].text == "kFields") {
                    while (i < toks.size() &&
                           !(toks[i].kind == TokKind::Punct &&
                             toks[i].text == "{"))
                        ++i;
                    start = i;
                    break;
                }
            if (start < toks.size()) {
                int depth = 0;
                for (std::size_t i = start; i < toks.size(); ++i) {
                    const Tok &t = toks[i];
                    if (t.kind == TokKind::Punct) {
                        if (t.text == "{")
                            ++depth;
                        else if (t.text == "}" && --depth == 0)
                            break;
                        continue;
                    }
                    if (t.kind == TokKind::Str && i > 0 &&
                        toks[i - 1].kind == TokKind::Punct &&
                        toks[i - 1].text == "{")
                        kFieldNames.emplace(t.text, t.line);
                }
            }
        }
        if (isSweep)
            for (const Tok &t : toks)
                if (t.kind == TokKind::Str)
                    harvestJsonKeys(t.text, labelKeys);
        if (!inSrc)
            continue;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Tok &t = toks[i];
            if (t.kind != TokKind::Str)
                continue;
            if (looksDotted(t.text))
                vocab.dotted.insert(t.text);
            else if (looksSuffix(t.text))
                vocab.suffix.insert(t.text);
            else if (looksPlain(t.text))
                vocab.plain.insert(t.text);
            // First-arg literals of registry calls are known-dotted
            // even when single-segment.
            if (i >= 2 && toks[i - 1].kind == TokKind::Punct &&
                toks[i - 1].text == "(" &&
                toks[i - 2].kind == TokKind::Ident &&
                kRegCalls.count(toks[i - 2].text) != 0 &&
                looksDotted(t.text))
                vocab.dotted.insert(t.text);
        }
    }

    // --- results.point_fields <-> kFields (both directions) -----------
    const JsonValue *results = doc.get("results");
    const JsonValue *pf =
        results != nullptr ? results->get("point_fields") : nullptr;
    if (pf == nullptr || pf->kind != JsonValue::Kind::Obj) {
        diags.push_back({schemaPath, doc.line, kRuleSchemaDrift,
                         "schema has no results.point_fields object "
                         "(tools/bench_schema.json contract)"});
    } else if (!kFieldNames.empty()) {
        std::set<std::string> schemaFields;
        for (const auto &[k, v] : pf->obj)
            schemaFields.insert(k);
        for (const auto &[name, line] : kFieldNames)
            if (schemaFields.count(name) == 0)
                diags.push_back(
                    {resultsPath, line, kRuleSchemaDrift,
                     "RunResult field '" + name +
                         "' is emitted by the kFields table but "
                         "missing from results.point_fields in "
                         "tools/bench_schema.json — add it so "
                         "check_bench_json.py keeps validating "
                         "artifacts (DESIGN.md §14)"});
        for (const auto &[k, v] : pf->obj)
            if (kFieldNames.count(k) == 0 && labelKeys.count(k) == 0)
                diags.push_back(
                    {schemaPath, v.line, kRuleSchemaDrift,
                     "schema point_field '" + k +
                         "' matches neither a kFields entry "
                         "(src/core/results.cc) nor a sweep-row "
                         "labeling key (core::sweepRowJson) — stale "
                         "schema entry (DESIGN.md §14)"});
    }

    // --- required stat paths must be registered somewhere in src/ -----
    const JsonValue *stats = doc.get("stats");
    if (stats != nullptr && !vocab.dotted.empty()) {
        for (const char *key :
             {"required_stat_paths", "required_fleet_stat_paths"}) {
            const JsonValue *arr = stats->get(key);
            if (arr == nullptr || arr->kind != JsonValue::Kind::Arr)
                continue;
            for (const JsonValue &p : arr->arr) {
                if (p.kind != JsonValue::Kind::Str)
                    continue;
                if (!vocab.resolves(p.str))
                    diags.push_back(
                        {schemaPath, p.line, kRuleSchemaDrift,
                         "schema-required stat path '" + p.str +
                             "' has no matching registration in "
                             "src/ (StatsRegistry literals and "
                             "prefix+suffix joins searched) — either "
                             "the registration moved/renamed or the "
                             "schema is stale (DESIGN.md §14)"});
            }
        }
    }
}

} // namespace halint
