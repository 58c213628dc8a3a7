/**
 * @file
 * Scenario: inline intrusion detection (REM over the snort-style
 * literal ruleset) on the SNIC's RXP-like accelerator, with HAL
 * spilling to the host when bursts exceed the accelerator's rate.
 * Shows the functional side too: the same literal matcher the
 * simulation executes per packet, the planted-attack hit counts, and
 * why the host CPU alone cannot run this ruleset (19x slower,
 * §III-A).
 */

#include <cstdio>
#include <memory>

#include "alg/corpus.hh"
#include "alg/literal_matcher.hh"
#include "core/server.hh"
#include "funcs/content.hh"

using namespace halsim;
using namespace halsim::core;

int
main()
{
    // --- The detection substrate itself -----------------------------
    const auto rules = alg::makeRuleset(
        alg::RulesetKind::SnortLiterals, 500);
    const alg::LiteralMatcher matcher(rules);
    std::printf("IDS ruleset: %zu literals -> %zu-byte match table\n",
                rules.size(), matcher.tableBytes());

    const auto clean = alg::makeScanStream(1 << 16, rules, 0.0, 1);
    const auto hostile = alg::makeScanStream(1 << 16, rules, 0.02, 2);
    std::printf("64 KiB clean traffic:   %llu hits\n",
                static_cast<unsigned long long>(
                    matcher.countMatches(clean)));
    std::printf("64 KiB hostile traffic: %llu hits\n\n",
                static_cast<unsigned long long>(
                    matcher.countMatches(hostile)));

    // --- Deployment comparison under a bursty trace ------------------
    std::printf("inline IDS under the hadoop trace (avg ~10.9 Gbps, "
                "bursts to line rate):\n");
    std::printf("%-10s %8s %10s %8s %8s %10s\n", "mode", "tpGbps",
                "p99us", "power", "Gbps/W", "loss%");
    for (Mode mode : {Mode::HostOnly, Mode::SnicOnly, Mode::Hal}) {
        ServerConfig cfg;
        cfg.mode = mode;
        cfg.function = funcs::FunctionId::Rem;
        cfg.rem_ruleset = alg::RulesetKind::SnortLiterals;
        EventQueue eq;
        ServerSystem sys(eq, cfg);
        const auto r = sys.run(net::makeTrace(net::TraceKind::Hadoop),
                               20 * kMs, 300 * kMs, 2 * kMs);
        std::printf("%-10s %8.2f %10.1f %8.1f %8.4f %9.1f%%\n",
                    modeName(mode), r.delivered_gbps, r.p99_us,
                    r.system_power_w, r.energy_eff,
                    100.0 * r.lossFraction());
    }
    std::printf(
        "\nwith the complex ruleset the host CPU is the weak side "
        "(19x slower than the RXP accelerator), so HAL's diverted\n"
        "packets are expensive — but still better than dropping them "
        "on the saturated accelerator.\n");
    return 0;
}
