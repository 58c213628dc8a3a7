/**
 * @file
 * halint: the repo-native determinism & concurrency linter.
 *
 * The simulator's headline guarantee — bit-identical RunResult across
 * seeds, pooling modes, and sweep thread counts — depends on coding
 * invariants (no wall clock, no unseeded RNG, no unordered iteration,
 * pure parallelFor callbacks, no thread primitives in the
 * single-threaded engine) that a compiler cannot check. halint
 * promotes them from DESIGN.md prose to named, suppressible
 * diagnostics; DESIGN.md §9 has the rule table. Heap allocation is
 * measured, not linted: the EngineCost ratchet
 * (tests/test_engine_cost.cc) counts it exactly.
 *
 * The engine is deliberately not a C++ front end: a small lexer
 * strips comments/strings/preprocessor lines into a token stream and
 * per-rule scanners pattern-match on it, one file at a time. That
 * keeps the tool dependency-free and fast enough to run as a tier-1
 * ctest on every build.
 */

#ifndef HALSIM_TOOLS_HALINT_HH
#define HALSIM_TOOLS_HALINT_HH

#include <string>
#include <string_view>
#include <vector>

namespace halint {

/** One finding: a rule violation (or malformed directive) at a line. */
struct Diagnostic
{
    std::string file;    //!< path as given to the scanner
    int line = 0;        //!< 1-based line of the offending token
    std::string rule;    //!< "HAL-Wnnn"
    std::string message; //!< explanation + fix pointer (DESIGN.md §9)
};

/** Rule identifiers (HAL-W000 covers the directive grammar itself). */
inline constexpr const char *kRuleDirective = "HAL-W000";
inline constexpr const char *kRuleWallClock = "HAL-W001";
inline constexpr const char *kRuleRng = "HAL-W002";
inline constexpr const char *kRuleUnordered = "HAL-W003";
inline constexpr const char *kRuleParallelPurity = "HAL-W005";
inline constexpr const char *kRuleHeaderHygiene = "HAL-W006";
inline constexpr const char *kRuleThreadPrimitive = "HAL-W007";

/**
 * Lint one translation unit. @p path decides which rules apply
 * (HAL-W002/W003 fire only under "src/", HAL-W006 only on headers),
 * so tests can pass synthetic paths like "src/x.cc" with fixture
 * strings as @p content. Suppressions
 * (`// halint: allow(...)`) are already applied; malformed
 * directives come back as HAL-W000.
 */
std::vector<Diagnostic> lintSource(const std::string &path,
                                   std::string_view content);

/** Human-readable one-line summary of every rule (for --list-rules). */
std::string ruleTable();

/**
 * Lint every C++ source under @p roots (files, or directories walked
 * recursively for .cc/.hh/.cpp/.h), with paths reported relative to
 * @p base when they fall under it. Unreadable paths produce a
 * HAL-W000 diagnostic rather than a crash.
 */
std::vector<Diagnostic> lintPaths(const std::string &base,
                                  const std::vector<std::string> &roots);

// --------------------------------------------------------------------
// Output formats
// --------------------------------------------------------------------

/** One line per diagnostic: "file:line: RULE: message". */
std::string formatText(const std::vector<Diagnostic> &diags);

/** SARIF 2.1.0, one run, for GitHub code-scanning upload. */
std::string formatSarif(const std::vector<Diagnostic> &diags);

} // namespace halint

#endif // HALSIM_TOOLS_HALINT_HH
