/**
 * @file
 * halint output formats: one line of text per diagnostic, or SARIF
 * 2.1.0 for GitHub code scanning.
 */

#include "halint.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace halint {

namespace {

/** JSON string escaping for the SARIF emitter. */
std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
formatText(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    for (const Diagnostic &d : diags)
        os << d.file << ":" << d.line << ": " << d.rule << ": "
           << d.message << "\n";
    return os.str();
}

std::string
formatSarif(const std::vector<Diagnostic> &diags)
{
    // Rule metadata: id -> short description, collected from the
    // diagnostics actually present plus the static table.
    static const std::map<std::string, std::string> kRuleDesc{
        {"HAL-W000", "malformed halint directive or unreadable path"},
        {"HAL-W001", "wall-clock time source in simulation code"},
        {"HAL-W002", "unseeded or non-deterministic RNG"},
        {"HAL-W003", "unordered container iteration in src/"},
        {"HAL-W005", "impure parallelFor callback"},
        {"HAL-W006", "header hygiene (using namespace, etc.)"},
        {"HAL-W007", "thread primitive in the single-threaded DES core"},
    };
    std::set<std::string> used;
    for (const Diagnostic &d : diags)
        used.insert(d.rule);
    std::ostringstream os;
    os << "{\n"
          "  \"version\": \"2.1.0\",\n"
          "  \"$schema\": \"https://raw.githubusercontent.com/oasis-"
          "tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
          "  \"runs\": [\n"
          "    {\n"
          "      \"tool\": {\n"
          "        \"driver\": {\n"
          "          \"name\": \"halint\",\n"
          "          \"informationUri\": "
          "\"https://example.invalid/halsim/tools/halint\",\n"
          "          \"rules\": [";
    bool first = true;
    for (const std::string &id : used) {
        const auto it = kRuleDesc.find(id);
        os << (first ? "\n" : ",\n")
           << "            {\"id\": \"" << jsonEscape(id)
           << "\", \"shortDescription\": {\"text\": \""
           << jsonEscape(it != kRuleDesc.end() ? it->second
                                               : "halint rule")
           << "\"}}";
        first = false;
    }
    os << (used.empty() ? "]" : "\n          ]")
       << "\n        }\n      },\n      \"results\": [";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        os << (i ? ",\n" : "\n")
           << "        {\"ruleId\": \"" << jsonEscape(d.rule)
           << "\", \"level\": \"warning\", \"message\": {\"text\": \""
           << jsonEscape(d.message)
           << "\"}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << jsonEscape(d.file)
           << "\"}, \"region\": {\"startLine\": "
           << std::max(d.line, 1) << "}}}]}";
    }
    os << (diags.empty() ? "]" : "\n      ]")
       << "\n    }\n  ]\n}\n";
    return os.str();
}

} // namespace halint
