/**
 * @file
 * halint rule engine tests: every rule gets crafted good/bad fixture
 * snippets with exact diagnostic IDs and line numbers asserted, plus
 * the suppression grammar and the lexer's comment/string stripping.
 * Paths are synthetic — lintSource scopes rules by path prefix, so
 * "src/x.cc" exercises the src/-only rules without touching disk.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "halint.hh"

using halint::Diagnostic;
using halint::lintSource;

namespace {

std::vector<Diagnostic>
lint(const std::string &path, const std::string &src)
{
    return lintSource(path, src);
}

/** All diagnostics for one rule, as (line) list, for terse asserts. */
std::vector<int>
linesOf(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    std::vector<int> out;
    for (const Diagnostic &d : diags)
        if (d.rule == rule)
            out.push_back(d.line);
    return out;
}

} // namespace

TEST(Halint, CleanSourceIsClean)
{
    const auto d = lint("src/sim/a.cc",
                        "#include <vector>\n"
                        "int add(int a, int b) { return a + b; }\n");
    EXPECT_TRUE(d.empty());
}

// ---- HAL-W001 ------------------------------------------------------

TEST(HalintW001, FlagsWallClockSources)
{
    const auto d = lint("src/sim/a.cc",
                        "void f() {\n"
                        "    auto t = std::time(nullptr);\n"
                        "    auto c = std::chrono::system_clock::now();\n"
                        "    gettimeofday(&tv, nullptr);\n"
                        "}\n");
    EXPECT_EQ(linesOf(d, halint::kRuleWallClock),
              (std::vector<int>{2, 3, 4}));
}

TEST(HalintW001, AppliesOutsideSrcToo)
{
    const auto d =
        lint("bench/b.cc", "long f() { return time(nullptr); }\n");
    EXPECT_EQ(linesOf(d, halint::kRuleWallClock),
              (std::vector<int>{1}));
}

TEST(HalintW001, MemberAndQualifiedCallsAreNotWallClock)
{
    const auto d = lint("src/sim/a.cc",
                        "void f(Meter &m) {\n"
                        "    m.time(3);\n"
                        "    m->clock(4);\n"
                        "    Meter::time(5);\n"
                        "}\n");
    EXPECT_TRUE(d.empty());
}

TEST(HalintW001, FlagsHostTimeHeaderInclude)
{
    const auto d = lint("src/net/a.cc",
                        "#include <ctime>\n#include <sys/time.h>\n");
    EXPECT_EQ(linesOf(d, halint::kRuleWallClock),
              (std::vector<int>{1, 2}));
}

// ---- HAL-W002 ------------------------------------------------------

TEST(HalintW002, FlagsStdlibRngInSrc)
{
    const auto d = lint("src/sim/a.cc",
                        "int f() {\n"
                        "    std::mt19937 gen{};\n"
                        "    std::srand(42);\n"
                        "    return std::rand();\n"
                        "}\n");
    EXPECT_EQ(linesOf(d, halint::kRuleRng),
              (std::vector<int>{2, 3, 4}));
}

TEST(HalintW002, FlagsRandomDeviceAndRandomHeader)
{
    const auto d = lint("src/net/a.cc",
                        "#include <random>\n"
                        "std::random_device rd;\n");
    EXPECT_EQ(linesOf(d, halint::kRuleRng), (std::vector<int>{1, 2}));
}

TEST(HalintW002, ScopedToSrcOnly)
{
    const auto d =
        lint("bench/b.cc", "int f() { return std::rand(); }\n");
    EXPECT_TRUE(linesOf(d, halint::kRuleRng).empty());
}

TEST(HalintW002, MemberNamedRandIsFine)
{
    const auto d =
        lint("src/sim/a.cc", "int f(Rng &r) { return r.rand(); }\n");
    EXPECT_TRUE(d.empty());
}

// ---- HAL-W003 ------------------------------------------------------

TEST(HalintW003, FlagsUnorderedContainersInSrc)
{
    const auto d = lint("src/core/a.cc",
                        "#include <unordered_map>\n"
                        "std::unordered_map<int, int> m;\n"
                        "std::unordered_set<int> s;\n");
    EXPECT_EQ(linesOf(d, halint::kRuleUnordered),
              (std::vector<int>{1, 2, 3}));
}

TEST(HalintW003, ScopedToSrcAndIgnoresComments)
{
    EXPECT_TRUE(lint("bench/b.cc", "std::unordered_map<int, int> m;\n")
                    .empty());
    EXPECT_TRUE(lint("src/a.cc", "// unlike unordered_map, FixedMap\n"
                                 "int x;\n")
                    .empty());
}

// ---- HAL-W005 ------------------------------------------------------

TEST(HalintW005, FlagsMutableLambdaAndStaticLocal)
{
    const auto d = lint("bench/b.cc",
                        "void f() {\n"
                        "    parallelFor(n, t, [&, k](std::size_t i)\n"
                        "        mutable { work(i, k); });\n"
                        "    runSweep(points, [](std::size_t i) {\n"
                        "        static int hits = 0;\n"
                        "        ++hits;\n"
                        "    });\n"
                        "}\n");
    EXPECT_EQ(linesOf(d, halint::kRuleParallelPurity),
              (std::vector<int>{3, 5}));
}

TEST(HalintW005, PureCallbackAndDefinitionAreFine)
{
    const auto d = lint("src/core/sweep.cc",
                        "void parallelFor(std::size_t n, unsigned t,\n"
                        "    const std::function<void(std::size_t)> &f);\n"
                        "void g() {\n"
                        "    parallelFor(n, t, [&](std::size_t i) {\n"
                        "        results[i] = run(points[i]);\n"
                        "    });\n"
                        "}\n"
                        "static int fileScopeStaticIsFine;\n");
    EXPECT_TRUE(d.empty());
}

// ---- HAL-W006 ------------------------------------------------------

TEST(HalintW006, MissingGuardFlaggedAtLineOne)
{
    const auto d = lint("src/net/a.hh", "int f();\n");
    EXPECT_EQ(linesOf(d, halint::kRuleHeaderHygiene),
              (std::vector<int>{1}));
}

TEST(HalintW006, GuardOrPragmaOnceAccepted)
{
    EXPECT_TRUE(lint("src/a.hh",
                     "#ifndef A_HH\n#define A_HH\nint f();\n#endif\n")
                    .empty());
    EXPECT_TRUE(lint("src/a.hh", "#pragma once\nint f();\n").empty());
}

TEST(HalintW006, UsingNamespaceInHeaderFlagged)
{
    const auto d = lint("src/a.hh",
                        "#pragma once\n"
                        "using namespace std;\n");
    EXPECT_EQ(linesOf(d, halint::kRuleHeaderHygiene),
              (std::vector<int>{2}));
    // Fine in a .cc, and `using x = y;` aliases are fine anywhere.
    EXPECT_TRUE(lint("src/a.cc", "using namespace std;\n").empty());
    EXPECT_TRUE(
        lint("src/a.hh", "#pragma once\nusing T = int;\n").empty());
}

// ---- HAL-W007 ------------------------------------------------------

TEST(HalintW007, ThreadPrimitiveInDesCoreFlagged)
{
    const auto d = lint("src/sim/engine.cc",
                        "void f() {\n"
                        "    std::mutex mu;\n"
                        "    std::atomic<int> n{0};\n"
                        "}\n");
    EXPECT_EQ(linesOf(d, halint::kRuleThreadPrimitive),
              (std::vector<int>{2, 3}));
}

TEST(HalintW007, PrimitiveMembersFlaggedInHeaders)
{
    // No block of the DES core is exempt: a synchronized member in a
    // class body is flagged like a local in a function body.
    const auto d = lint("src/sim/box.hh",
                        "#pragma once\n"
                        "class Box {\n"
                        "    std::atomic<std::size_t> head_{0};\n"
                        "};\n");
    EXPECT_EQ(linesOf(d, halint::kRuleThreadPrimitive),
              (std::vector<int>{3}));
}

TEST(HalintW007, OutsideDesCoreNotFlagged)
{
    EXPECT_TRUE(
        lint("src/core/pool.cc", "std::mutex mu;\n").empty());
    EXPECT_TRUE(lint("bench/b.cc", "std::thread t;\n").empty());
}

TEST(HalintW007, AllowSuppresses)
{
    const auto d =
        lint("src/sim/pool.cc",
             "// halint: allow(HAL-W007) sweep pool, not the DES core\n"
             "std::thread worker;\n");
    EXPECT_TRUE(d.empty());
}

// ---- suppression grammar ------------------------------------------

TEST(HalintSuppress, TrailingAllowSuppressesSameLine)
{
    const auto d = lint(
        "src/a.cc",
        "int f() { return std::rand(); } "
        "// halint: allow(HAL-W002) seed study needs libc rand\n");
    EXPECT_TRUE(d.empty());
}

TEST(HalintSuppress, PrecedingLineAllowSuppressesNextLine)
{
    const auto d = lint("src/a.cc",
                        "// halint: allow(HAL-W002) calibration only\n"
                        "int f() { return std::rand(); }\n");
    EXPECT_TRUE(d.empty());
}

TEST(HalintSuppress, AllowListCoversMultipleRules)
{
    const auto d = lint(
        "src/a.cc",
        "// halint: allow(HAL-W001, HAL-W002) replaying a host trace\n"
        "long f() { return time(nullptr) ^ std::rand(); }\n");
    EXPECT_TRUE(d.empty());
}

TEST(HalintSuppress, WrongRuleDoesNotSuppress)
{
    const auto d = lint("src/a.cc",
                        "// halint: allow(HAL-W001) wrong rule id\n"
                        "int f() { return std::rand(); }\n");
    EXPECT_EQ(linesOf(d, halint::kRuleRng), (std::vector<int>{2}));
}

TEST(HalintSuppress, AllowDoesNotLeakPastNextLine)
{
    const auto d = lint("src/a.cc",
                        "// halint: allow(HAL-W002) only line 2\n"
                        "int f() { return 0; }\n"
                        "int g() { return std::rand(); }\n");
    EXPECT_EQ(linesOf(d, halint::kRuleRng), (std::vector<int>{3}));
}

TEST(HalintSuppress, ReasonIsMandatory)
{
    const auto d = lint("src/a.cc",
                        "// halint: allow(HAL-W002)\n"
                        "int f() { return std::rand(); }\n");
    EXPECT_EQ(linesOf(d, halint::kRuleDirective),
              (std::vector<int>{1}));
    // The reason-less allow() must not suppress either.
    EXPECT_EQ(linesOf(d, halint::kRuleRng), (std::vector<int>{2}));
}

TEST(HalintSuppress, RetiredRuleIdIsMalformed)
{
    // Retired rules are unknown ids: W009 (wheel-partition escapes)
    // went with the partitioned engine, W010 with the schema-drift
    // pass, and the two allocation rules and their annotation with
    // the allocation lint (the EngineCost ratchet counts allocations).
    for (const char *retired : {
             "// halint: allow(HAL-W009) x\n",
             "// halint: allow(HAL-W010) x\n",
             "// halint: allow(HAL-W004) x\n",
             "// halint: allow(HAL-W008) x\n",
             "// halint: hotpath\nvoid f() { v.push_back(1); }\n",
         })
        EXPECT_EQ(linesOf(lint("src/a.cc", retired),
                          halint::kRuleDirective),
                  (std::vector<int>{1}))
            << retired;
}

TEST(HalintSuppress, MalformedDirectivesDiagnosed)
{
    EXPECT_EQ(linesOf(lint("src/a.cc", "// halint: allom(HAL-W002) x\n"),
                      halint::kRuleDirective),
              (std::vector<int>{1}));
    EXPECT_EQ(linesOf(lint("src/a.cc", "// halint: allow(HAL-W9) x\n"),
                      halint::kRuleDirective),
              (std::vector<int>{1}));
}

// ---- lexer hygiene -------------------------------------------------

TEST(HalintLexer, StringsCommentsAndRawStringsAreStripped)
{
    const auto d = lint(
        "src/a.cc",
        "const char *a = \"std::rand() time(nullptr)\";\n"
        "// std::rand() in a comment\n"
        "/* unordered_map<int,int> in a block comment */\n"
        "const char *b = R\"(srand(1); mt19937 g;)\";\n"
        "const char *c = \"escaped \\\" std::rand() quote\";\n");
    EXPECT_TRUE(d.empty());
}

TEST(HalintLexer, DigitSeparatorsAreNotCharLiterals)
{
    // If 1'000'000 were mis-lexed as a char literal the rand() call
    // would vanish into a phantom string.
    const auto d = lint("src/a.cc",
                        "int big = 1'000'000;\n"
                        "int f() { return std::rand(); }\n");
    EXPECT_EQ(linesOf(d, halint::kRuleRng), (std::vector<int>{2}));
}

TEST(HalintLexer, LineNumbersSurviveMultilineConstructs)
{
    const auto d = lint("src/a.cc",
                        "/* block\n"
                        "   comment\n"
                        "   spanning lines */\n"
                        "int f() { return std::rand(); }\n");
    EXPECT_EQ(linesOf(d, halint::kRuleRng), (std::vector<int>{4}));
}

// ---- output formats ------------------------------------------------

TEST(HalintOutput, TextJsonAndSarifCarryTheFinding)
{
    const std::vector<Diagnostic> diags{
        {"src/a.cc", 7, halint::kRuleRng, "msg with \"quotes\""},
    };
    const std::string text = halint::formatText(diags);
    EXPECT_NE(text.find("src/a.cc:7: HAL-W002:"), std::string::npos);

    // SARIF is the one JSON report (CI uploads it to code scanning).
    const std::string sarif = halint::formatSarif(diags);
    EXPECT_NE(sarif.find("\\\"quotes\\\""), std::string::npos);
    EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"HAL-W002\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"halint\""), std::string::npos);
}

TEST(HalintOutput, EmptyReportsAreWellFormed)
{
    EXPECT_EQ(halint::formatText({}), "");
    EXPECT_NE(halint::formatSarif({}).find("\"results\": []"),
              std::string::npos);
}
