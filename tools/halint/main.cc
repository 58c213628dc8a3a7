/**
 * @file
 * halint CLI. Scans the repo's C++ trees (default: src/ bench/
 * examples/ tools/ relative to --root), runs the per-file rules, and
 * reports diagnostics:
 *
 *   src/sim/foo.cc:123: HAL-W002: non-deterministic RNG 'rand' — ...
 *
 * Options:
 *   --root DIR            repo root (paths reported relative to it)
 *   --format text|sarif
 *   --output FILE         write the report there instead of stdout
 *   --list-rules          print the rule table and exit
 *
 * Exit status: 0 clean, 1 diagnostics found, 2 usage/IO error. Run
 * from the build as `ctest -R halint` or directly:
 *
 *   ./build/tools/halint/halint --root . --format=sarif --output out.sarif
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "halint.hh"

namespace {

/** Accept both "--flag VALUE" and "--flag=VALUE". */
bool
flagValue(int argc, char **argv, int &i, const char *name,
          std::string &out)
{
    const std::size_t n = std::strlen(name);
    if (std::strcmp(argv[i], name) == 0) {
        if (i + 1 >= argc)
            return false;
        out = argv[++i];
        return true;
    }
    if (std::strncmp(argv[i], name, n) == 0 && argv[i][n] == '=') {
        out = argv[i] + n + 1;
        return true;
    }
    return false;
}

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--root DIR] [--format text|sarif]\n"
        "          [--output FILE] [--list-rules] [path...]\n"
        "  default paths: src bench examples tools\n",
        prog);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string format = "text";
    std::string outputFile;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (flagValue(argc, argv, i, "--root", v)) {
            root = v;
        } else if (flagValue(argc, argv, i, "--format", v)) {
            format = v;
            if (format != "text" && format != "sarif")
                return usage(argv[0]);
        } else if (flagValue(argc, argv, i, "--output", v)) {
            outputFile = v;
        } else if (std::strcmp(argv[i], "--list-rules") == 0) {
            std::fputs(halint::ruleTable().c_str(), stdout);
            return 0;
        } else if (argv[i][0] == '-') {
            return usage(argv[0]);
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.empty())
        paths = {"src", "bench", "examples", "tools"};
    for (std::string &p : paths)
        if (p[0] != '/' && root != ".")
            p = root + "/" + p;

    const std::vector<halint::Diagnostic> diags =
        halint::lintPaths(root, paths);

    const std::string report = format == "sarif"
                                   ? halint::formatSarif(diags)
                                   : halint::formatText(diags);

    if (!outputFile.empty()) {
        std::ofstream out(outputFile);
        out << report;
        if (!out) {
            std::fprintf(stderr, "halint: cannot write %s\n",
                         outputFile.c_str());
            return 2;
        }
    } else {
        std::fputs(report.c_str(), stdout);
    }

    if (format == "text" && outputFile.empty()) {
        if (diags.empty())
            std::printf("halint: clean\n");
        else
            std::printf(
                "halint: %zu diagnostic(s); suppress a justified one "
                "with '// halint: allow(HAL-Wnnn) <reason>' "
                "(see DESIGN.md §9)\n",
                diags.size());
    }
    return diags.empty() ? 0 : 1;
}
