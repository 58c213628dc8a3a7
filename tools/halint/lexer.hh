/**
 * @file
 * halint lexer: turns one C++ translation unit into the token stream
 * the rule scanners share. Comments and string and char literals are
 * dropped, and preprocessor logical lines are kept whole as PP tokens,
 * so a forbidden name inside a string (or halint's own rule tables)
 * cannot trip a rule.
 *
 * The lexer also parses `// halint: allow(...)` control comments into
 * Directive records, which the engine applies to their own line and
 * the next.
 */

#ifndef HALSIM_TOOLS_HALINT_LEXER_HH
#define HALSIM_TOOLS_HALINT_LEXER_HH

#include <string>
#include <string_view>
#include <vector>

namespace halint {

enum class TokKind { Ident, Punct, Number, PP };

struct Tok
{
    TokKind kind;
    std::string text;
    int line;
};

/** A parsed `// halint: ...` control comment. */
struct Directive
{
    int line = 0;
    std::vector<std::string> allow; //!< rule ids for allow(...)
    bool malformed = false;
    std::string error;
};

struct Lexed
{
    std::vector<Tok> toks;
    std::vector<Directive> directives;
};

/** Lex one source file. Never fails: unterminated constructs run to
 *  end of input. */
Lexed lex(std::string_view src);

/** True when @p r is a known HAL-Wnnn rule id (directive grammar). */
bool validRuleId(const std::string &r);

/** Whitespace-trimmed copy. */
std::string trim(std::string_view s);

} // namespace halint

#endif // HALSIM_TOOLS_HALINT_LEXER_HH
