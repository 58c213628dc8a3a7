#include "index.hh"

#include <algorithm>
#include <set>

namespace halint {

namespace {

/** Keywords that look like calls or definitions but are neither. */
const std::set<std::string> &
keywordSet()
{
    static const std::set<std::string> kw{
        "if",       "for",      "while",    "switch",   "return",
        "catch",    "sizeof",   "alignof",  "decltype", "noexcept",
        "new",      "delete",   "throw",    "case",     "do",
        "else",     "goto",     "static_assert", "operator",
        "typeid",   "co_await", "co_return", "co_yield", "assert",
        "defined",  "alignas",  "requires"};
    return kw;
}

bool
isPunct(const Tok &t, const char *p)
{
    return t.kind == TokKind::Punct && t.text == p;
}

enum class CtxKind { Namespace, Class, Func, Other };

struct Ctx
{
    CtxKind kind;
    std::string name;
    std::size_t funcIndex = 0; //!< into out.funcs when kind == Func
};

/**
 * Statement-buffer classification for a '{': what kind of scope does
 * it open? The buffer holds the token indices since the previous
 * ';', '{', '}', or access-specifier boundary.
 */
struct StmtInfo
{
    bool isNamespace = false;
    bool isClass = false;
    bool isFunc = false;
    std::string name;  //!< namespace/class name or function last seg
    std::string qual;  //!< function qualified name
    std::string klass; //!< qualifying class for out-of-class defs
    int nameLine = 0;
};

StmtInfo
classify(const std::vector<Tok> &toks, const std::vector<std::size_t> &buf)
{
    StmtInfo out;
    bool sawClassKw = false, sawEnum = false, sawNamespace = false;
    std::size_t classKwPos = 0;
    int parenDepth = 0;
    std::size_t firstCall = 0; //!< buffer pos of depth-0 '(' or 0
    for (std::size_t bi = 0; bi < buf.size(); ++bi) {
        const Tok &t = toks[buf[bi]];
        if (t.kind == TokKind::Punct) {
            if (t.text == "(") {
                if (parenDepth == 0 && firstCall == 0 && bi > 0)
                    firstCall = bi;
                ++parenDepth;
            } else if (t.text == ")") {
                --parenDepth;
            }
            continue;
        }
        if (t.kind != TokKind::Ident)
            continue;
        if (t.text == "namespace")
            sawNamespace = true;
        else if (t.text == "enum")
            sawEnum = true;
        else if ((t.text == "class" || t.text == "struct" ||
                  t.text == "union") &&
                 !sawClassKw) {
            sawClassKw = true;
            classKwPos = bi;
        }
    }
    if (sawNamespace) {
        out.isNamespace = true;
        // `namespace foo {` / anonymous `namespace {`.
        for (std::size_t bi = buf.size(); bi-- > 0;) {
            const Tok &t = toks[buf[bi]];
            if (t.kind == TokKind::Ident && t.text != "namespace") {
                out.name = t.text;
                break;
            }
        }
        return out;
    }
    if (sawClassKw && !sawEnum && firstCall == 0) {
        out.isClass = true;
        // Name: first Ident after the class/struct keyword that is
        // not an attribute/alignas noise token; base clauses follow a
        // ':' and are ignored because we only take the first Ident.
        for (std::size_t bi = classKwPos + 1; bi < buf.size(); ++bi) {
            const Tok &t = toks[buf[bi]];
            if (isPunct(t, ":"))
                break;
            if (t.kind == TokKind::Ident && t.text != "final" &&
                t.text != "alignas") {
                out.name = t.text;
                out.nameLine = t.line;
                break;
            }
        }
        return out;
    }
    if (firstCall == 0)
        return out;
    // Function definition: Ident (possibly qualified) right before
    // the first depth-0 '('. Reject keywords and lambda '[]('.
    const Tok &nameTok = toks[buf[firstCall - 1]];
    if (nameTok.kind != TokKind::Ident ||
        keywordSet().count(nameTok.text) != 0)
        return out;
    out.isFunc = true;
    out.name = nameTok.text;
    out.nameLine = nameTok.line;
    // Walk back over `A::B::name` qualification.
    std::vector<std::string> chain{nameTok.text};
    std::size_t bi = firstCall - 1;
    while (bi >= 2 && isPunct(toks[buf[bi - 1]], "::") &&
           toks[buf[bi - 2]].kind == TokKind::Ident) {
        chain.insert(chain.begin(), toks[buf[bi - 2]].text);
        bi -= 2;
    }
    for (std::size_t ci = 0; ci < chain.size(); ++ci) {
        if (ci)
            out.qual += "::";
        out.qual += chain[ci];
    }
    if (chain.size() > 1)
        out.klass = chain[chain.size() - 2];
    return out;
}

} // namespace

std::vector<AllocSite>
findAllocations(const Lexed &lx, std::size_t begin, std::size_t end)
{
    static const std::set<std::string> kAllocCalls{
        "malloc", "calloc", "realloc", "aligned_alloc", "strdup"};
    static const std::set<std::string> kGrowth{
        "push_back", "emplace_back", "emplace", "resize",
        "reserve",   "insert",       "append"};
    static const std::set<std::string> kMakers{"make_unique",
                                               "make_shared"};
    std::vector<AllocSite> out;
    auto nextIs = [&](std::size_t i, const char *p) {
        return i + 1 < lx.toks.size() && isPunct(lx.toks[i + 1], p);
    };
    for (std::size_t i = begin; i <= end && i < lx.toks.size(); ++i) {
        const Tok &t = lx.toks[i];
        if (t.kind != TokKind::Ident)
            continue;
        std::string what;
        if (t.text == "new" && !nextIs(i, "(")) {
            what = "operator new"; // placement new is exempt
        } else if (kAllocCalls.count(t.text) != 0 && nextIs(i, "(")) {
            what = t.text + "()";
        } else if (kMakers.count(t.text) != 0 &&
                   (nextIs(i, "<") || nextIs(i, "("))) {
            what = "std::" + t.text;
        } else if (kGrowth.count(t.text) != 0 && i > 0 &&
                   (isPunct(lx.toks[i - 1], ".") ||
                    isPunct(lx.toks[i - 1], "->"))) {
            what = "container ." + t.text + "()";
        }
        if (!what.empty())
            out.push_back({t.line, std::move(what)});
    }
    return out;
}

RepoIndex
buildIndex(const std::vector<SourceFile> &files)
{
    RepoIndex idx;
    idx.units.reserve(files.size());
    for (const SourceFile &f : files) {
        Unit u;
        u.path = f.path;
        u.lx = lex(f.content);
        idx.units.push_back(std::move(u));
    }

    for (std::size_t ui = 0; ui < idx.units.size(); ++ui) {
        Unit &u = idx.units[ui];
        const std::vector<Tok> &toks = u.lx.toks;

        std::vector<Ctx> ctx;
        std::vector<std::size_t> buf; //!< token indices of the stmt
        auto innermost = [&]() -> CtxKind {
            return ctx.empty() ? CtxKind::Namespace : ctx.back().kind;
        };
        for (std::size_t i = 0; i < toks.size(); ++i) {
            const Tok &t = toks[i];
            if (t.kind == TokKind::PP)
                continue;
            if (isPunct(t, ";")) {
                buf.clear();
                continue;
            }
            if (isPunct(t, ":") && buf.size() == 1) {
                const Tok &a = toks[buf[0]];
                if (a.kind == TokKind::Ident &&
                    (a.text == "public" || a.text == "private" ||
                     a.text == "protected")) {
                    buf.clear();
                    continue;
                }
            }
            if (isPunct(t, "}")) {
                if (!ctx.empty()) {
                    if (ctx.back().kind == CtxKind::Func)
                        idx.funcs[ctx.back().funcIndex].bodyEnd = i;
                    ctx.pop_back();
                }
                buf.clear();
                continue;
            }
            if (!isPunct(t, "{")) {
                buf.push_back(i);
                continue;
            }

            // '{' — classify the scope it opens.
            const CtxKind inner = innermost();
            StmtInfo si;
            if (inner == CtxKind::Namespace || inner == CtxKind::Class)
                si = classify(toks, buf);
            if (si.isNamespace) {
                ctx.push_back({CtxKind::Namespace, si.name});
            } else if (si.isClass) {
                ctx.push_back({CtxKind::Class, si.name});
            } else if (si.isFunc) {
                FuncDef fd;
                fd.unit = ui;
                fd.name = si.name;
                fd.klass = !si.klass.empty()
                               ? si.klass
                               : (inner == CtxKind::Class
                                      ? ctx.back().name
                                      : "");
                fd.qual = si.qual;
                if (si.klass.empty() && !fd.klass.empty())
                    fd.qual = fd.klass + "::" + fd.name;
                fd.line = si.nameLine;
                fd.bodyBegin = i;
                fd.bodyEnd = toks.size();
                ctx.push_back({CtxKind::Func, fd.name,
                               idx.funcs.size()});
                idx.funcs.push_back(std::move(fd));
            } else {
                // Brace init, enum body, lambda at odd scope, or a
                // block inside a function: neutral nesting.
                ctx.push_back({CtxKind::Other, ""});
            }
            buf.clear();
        }

        // Close any unterminated scopes (truncated input).
        while (!ctx.empty()) {
            if (ctx.back().kind == CtxKind::Func)
                idx.funcs[ctx.back().funcIndex].bodyEnd =
                    toks.size() > 0 ? toks.size() - 1 : 0;
            ctx.pop_back();
        }
    }

    // Hotpath annotations: each attaches to the first function whose
    // body opens at or after the directive (matches the per-file
    // W004 "next brace-balanced block" semantics).
    for (std::size_t ui = 0; ui < idx.units.size(); ++ui) {
        for (const Directive &d : idx.units[ui].lx.directives) {
            if (!d.hotpath)
                continue;
            FuncDef *best = nullptr;
            for (FuncDef &f : idx.funcs) {
                if (f.unit != ui || f.bodyBegin < d.tokenIndexAfter)
                    continue;
                if (best == nullptr || f.bodyBegin < best->bodyBegin)
                    best = &f;
            }
            if (best != nullptr) {
                best->hotpath = true;
                best->hotpathLine = d.line;
            }
        }
    }

    // Call sites per function body.
    for (FuncDef &f : idx.funcs) {
        const std::vector<Tok> &toks = idx.units[f.unit].lx.toks;
        const std::size_t hi =
            std::min(f.bodyEnd, toks.size() > 0 ? toks.size() - 1
                                                : std::size_t{0});
        for (std::size_t i = f.bodyBegin; i <= hi; ++i) {
            const Tok &t = toks[i];
            if (t.kind != TokKind::Ident ||
                keywordSet().count(t.text) != 0)
                continue;
            if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "("))
                continue;
            CallSite cs;
            cs.callee = t.text;
            cs.line = t.line;
            cs.tok = i;
            if (i > 0) {
                const Tok &prev = toks[i - 1];
                if (isPunct(prev, ".") || isPunct(prev, "->")) {
                    cs.member = true;
                } else if (isPunct(prev, "::") && i >= 2 &&
                           toks[i - 2].kind == TokKind::Ident) {
                    cs.qualifier = toks[i - 2].text;
                }
            }
            // std:: library calls carry no repo edge.
            if (cs.qualifier == "std")
                continue;
            f.calls.push_back(std::move(cs));
        }
    }

    for (std::size_t fi = 0; fi < idx.funcs.size(); ++fi)
        idx.byName[idx.funcs[fi].name].push_back(fi);
    return idx;
}

} // namespace halint
