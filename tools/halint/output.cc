/**
 * @file
 * halint output formats (text / JSON / SARIF 2.1.0) and the
 * baseline/ratchet machinery (tools/halint_baseline.json). See
 * DESIGN.md §14 for the workflow: bootstrap with --write-baseline,
 * then only ever shrink the committed file.
 */

#include "halint.hh"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "json_mini.hh"
#include "lexer.hh" // trim()

namespace halint {

// --------------------------------------------------------------------
// Baseline
// --------------------------------------------------------------------

bool
loadBaseline(const std::string &json, Baseline &out, std::string &err)
{
    JsonParser jp{json};
    const JsonValue doc = jp.value();
    jp.ws();
    if (!jp.ok || jp.i != json.size() ||
        doc.kind != JsonValue::Kind::Obj) {
        err = "baseline is not a JSON object (line " +
              std::to_string(jp.line) + ")";
        return false;
    }
    const JsonValue *sup = doc.get("suppressions");
    if (sup == nullptr || sup->kind != JsonValue::Kind::Arr) {
        err = "baseline needs a top-level \"suppressions\" array";
        return false;
    }
    for (const JsonValue &e : sup->arr) {
        if (e.kind != JsonValue::Kind::Obj) {
            err = "suppression entry at line " +
                  std::to_string(e.line) + " is not an object";
            return false;
        }
        BaselineEntry be;
        const JsonValue *rule = e.get("rule");
        const JsonValue *file = e.get("file");
        const JsonValue *count = e.get("count");
        const JsonValue *reason = e.get("reason");
        if (rule == nullptr || rule->kind != JsonValue::Kind::Str ||
            file == nullptr || file->kind != JsonValue::Kind::Str ||
            count == nullptr ||
            count->kind != JsonValue::Kind::Other ||
            reason == nullptr ||
            reason->kind != JsonValue::Kind::Str) {
            err = "suppression entry at line " +
                  std::to_string(e.line) +
                  " needs string rule/file/reason and numeric count";
            return false;
        }
        be.rule = rule->str;
        be.file = file->str;
        be.reason = reason->str;
        try {
            be.count = std::stoi(count->str);
        } catch (...) {
            be.count = -1;
        }
        if (be.count <= 0) {
            err = "suppression entry at line " +
                  std::to_string(e.line) +
                  " has non-positive count — delete the entry "
                  "instead";
            return false;
        }
        if (trim(be.reason).empty()) {
            err = "suppression entry at line " +
                  std::to_string(e.line) +
                  " has an empty reason — every legacy finding "
                  "must say why it is tolerated";
            return false;
        }
        out.entries.push_back(std::move(be));
    }
    return true;
}

std::vector<Diagnostic>
applyBaseline(std::vector<Diagnostic> diags, const Baseline &bl,
              const std::string &baselinePath)
{
    std::vector<Diagnostic> out;
    // Per (rule, file): how many findings an entry may absorb.
    std::map<std::pair<std::string, std::string>, int> budget;
    for (const BaselineEntry &e : bl.entries)
        budget[{e.rule, e.file}] += e.count;
    std::map<std::pair<std::string, std::string>, int> absorbed;
    for (Diagnostic &d : diags) {
        const auto key = std::make_pair(d.rule, d.file);
        auto it = budget.find(key);
        if (it != budget.end() && it->second > 0) {
            --it->second;
            ++absorbed[key];
            continue;
        }
        out.push_back(std::move(d));
    }
    // Ratchet: leftover budget means the code improved but the
    // baseline did not shrink with it. Fail so it cannot regrow.
    for (const auto &[key, left] : budget)
        if (left > 0)
            out.push_back(
                {baselinePath, 0, kRuleDirective,
                 "stale baseline entry: rule " + key.first +
                     " in '" + key.second + "' matched only " +
                     std::to_string(absorbed[key]) + " of " +
                     std::to_string(absorbed[key] + left) +
                     " suppressed finding(s) — lower or delete the "
                     "entry so the ratchet can only tighten "
                     "(DESIGN.md §14)"});
    std::sort(out.begin(), out.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    return out;
}

// --------------------------------------------------------------------
// Formats
// --------------------------------------------------------------------

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
formatJson(const std::vector<Diagnostic> &diags)
{
    std::ostringstream os;
    os << "{\n  \"diagnostics\": [";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        os << (i ? ",\n" : "\n")
           << "    {\"file\": \"" << jsonEscape(d.file)
           << "\", \"line\": " << d.line << ", \"rule\": \""
           << jsonEscape(d.rule) << "\", \"message\": \""
           << jsonEscape(d.message) << "\"}";
    }
    os << (diags.empty() ? "]" : "\n  ]") << ",\n  \"count\": "
       << diags.size() << "\n}\n";
    return os.str();
}

std::string
formatSarif(const std::vector<Diagnostic> &diags)
{
    // Rule metadata: id -> short description, collected from the
    // diagnostics actually present plus the static table.
    static const std::map<std::string, std::string> kRuleDesc{
        {"HAL-W000", "malformed or stale halint directive/baseline"},
        {"HAL-W001", "wall-clock time source in simulation code"},
        {"HAL-W002", "unseeded or non-deterministic RNG"},
        {"HAL-W003", "unordered container iteration in src/"},
        {"HAL-W004", "allocation inside a hotpath-annotated body"},
        {"HAL-W005", "impure parallelFor callback"},
        {"HAL-W006", "header hygiene (using namespace, etc.)"},
        {"HAL-W007", "thread primitive in the single-threaded DES core"},
        {"HAL-W008",
         "allocation transitively reachable from a hotpath root"},
        {"HAL-W010",
         "kFields/stats registration drifted from bench_schema.json"},
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

std::string
formatBaseline(const std::vector<Diagnostic> &diags)
{
    // Collapse to (rule, file) counts, the unit the ratchet works in.
    std::map<std::pair<std::string, std::string>, int> counts;
    for (const Diagnostic &d : diags)
        ++counts[{d.rule, d.file}];
    std::ostringstream os;
    os << "{\n  \"suppressions\": [";
    bool first = true;
    for (const auto &[key, n] : counts) {
        os << (first ? "\n" : ",\n")
           << "    {\"rule\": \"" << jsonEscape(key.first)
           << "\", \"file\": \"" << jsonEscape(key.second)
           << "\", \"count\": " << n
           << ", \"reason\": \"TODO: justify or fix\"}";
        first = false;
    }
    os << (counts.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

} // namespace halint
