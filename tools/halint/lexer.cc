#include "lexer.hh"

#include <cctype>
#include <set>
#include <sstream>

#include "halint.hh"

namespace halint {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/**
 * Parse the text of one line comment for a halint directive. Grammar
 * (the whole comment is the directive; block comments and prose that
 * merely mention the tag are ignored):
 *
 *   halint: allow(HAL-Wnnn[, HAL-Wnnn...]) <reason>
 *
 * The reason after allow(...) is mandatory: a suppression that does
 * not say why is itself a diagnostic (HAL-W000). Any other directive,
 * including the retired `hotpath` annotation, is HAL-W000 too.
 */
void
parseDirective(std::string_view text, int line, std::vector<Directive> &out)
{
    const std::string_view kTag = "halint:";
    const std::string lead = trim(text);
    if (lead.rfind(kTag, 0) != 0)
        return;
    Directive d;
    d.line = line;
    std::string rest = trim(lead.substr(kTag.size()));
    if (rest.rfind("allow", 0) == 0) {
        const std::size_t open = rest.find('(');
        const std::size_t close = rest.find(')');
        if (open == std::string::npos || close == std::string::npos ||
            close < open) {
            d.malformed = true;
            d.error = "allow directive needs (HAL-Wnnn): '" + rest + "'";
        } else {
            std::stringstream list(
                rest.substr(open + 1, close - open - 1));
            std::string id;
            while (std::getline(list, id, ',')) {
                id = trim(id);
                if (!validRuleId(id)) {
                    d.malformed = true;
                    d.error = "unknown rule id '" + id + "' in allow()";
                    break;
                }
                d.allow.push_back(id);
            }
            if (!d.malformed && d.allow.empty()) {
                d.malformed = true;
                d.error = "empty allow() list";
            }
            if (!d.malformed && trim(rest.substr(close + 1)).empty()) {
                d.malformed = true;
                d.error = "allow() without a reason; write "
                          "'// halint: allow(HAL-Wnnn) <why>'";
            }
        }
    } else {
        d.malformed = true;
        d.error = "unknown halint directive '" + rest + "'";
    }
    out.push_back(std::move(d));
}

} // namespace

std::string
trim(std::string_view s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

bool
validRuleId(const std::string &r)
{
    static const std::set<std::string> kKnown{
        kRuleDirective,      kRuleWallClock,     kRuleRng,
        kRuleUnordered,      kRuleParallelPurity, kRuleHeaderHygiene,
        kRuleThreadPrimitive};
    return kKnown.count(r) != 0;
}

Lexed
lex(std::string_view src)
{
    Lexed out;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = src.size();

    auto newlineSpan = [&](std::size_t from, std::size_t to) {
        for (std::size_t k = from; k < to; ++k)
            if (src[k] == '\n')
                ++line;
    };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Line comment (may hold a directive).
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            std::size_t e = i;
            while (e < n && src[e] != '\n')
                ++e;
            parseDirective(src.substr(i + 2, e - i - 2), line, out.directives);
            i = e;
            continue;
        }
        // Block comment (never carries directives).
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            std::size_t e = src.find("*/", i + 2);
            if (e == std::string_view::npos)
                e = n;
            else
                e += 2;
            newlineSpan(i, e);
            i = e;
            continue;
        }
        // Preprocessor logical line (with backslash continuations).
        if (c == '#' &&
            (out.toks.empty() || out.toks.back().line != line ||
             out.toks.back().kind == TokKind::PP)) {
            std::size_t e = i;
            const int start = line;
            while (e < n) {
                if (src[e] == '\n') {
                    std::size_t back = e;
                    while (back > i &&
                           std::isspace(
                               static_cast<unsigned char>(src[back - 1])) &&
                           src[back - 1] != '\n')
                        --back;
                    if (back > i && src[back - 1] == '\\') {
                        ++line;
                        ++e;
                        continue;
                    }
                    break;
                }
                ++e;
            }
            out.toks.push_back(
                {TokKind::PP, std::string(src.substr(i, e - i)), start});
            i = e;
            continue;
        }
        // Raw string literal R"delim( ... )delim" (dropped).
        if (c == 'R' && i + 1 < n && src[i + 1] == '"' &&
            (i == 0 || !identChar(src[i - 1]))) {
            std::size_t dEnd = i + 2;
            while (dEnd < n && src[dEnd] != '(' && src[dEnd] != '\n')
                ++dEnd;
            const std::string delim =
                ")" + std::string(src.substr(i + 2, dEnd - i - 2)) + "\"";
            std::size_t e = src.find(delim, dEnd);
            e = (e == std::string_view::npos) ? n : e + delim.size();
            newlineSpan(i, e);
            i = e;
            continue;
        }
        // Ordinary string / char literal (dropped).
        if (c == '"' || c == '\'') {
            std::size_t e = i + 1;
            while (e < n && src[e] != c) {
                if (src[e] == '\\' && e + 1 < n)
                    ++e;
                if (src[e] == '\n')
                    ++line;
                ++e;
            }
            i = (e < n) ? e + 1 : n;
            continue;
        }
        // Number (consumes digit separators so 1'000 is not a char).
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t e = i;
            while (e < n && (identChar(src[e]) || src[e] == '.' ||
                             (src[e] == '\'' && e + 1 < n &&
                              identChar(src[e + 1]))))
                ++e;
            out.toks.push_back(
                {TokKind::Number, std::string(src.substr(i, e - i)),
                 line});
            i = e;
            continue;
        }
        // Identifier / keyword.
        if (identChar(c)) {
            std::size_t e = i;
            while (e < n && identChar(src[e]))
                ++e;
            out.toks.push_back(
                {TokKind::Ident, std::string(src.substr(i, e - i)),
                 line});
            i = e;
            continue;
        }
        // Punctuation; '::' and '->' kept whole (qualifier checks).
        if (c == ':' && i + 1 < n && src[i + 1] == ':') {
            out.toks.push_back({TokKind::Punct, "::", line});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && src[i + 1] == '>') {
            out.toks.push_back({TokKind::Punct, "->", line});
            i += 2;
            continue;
        }
        out.toks.push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }
    return out;
}

} // namespace halint
