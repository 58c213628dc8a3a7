#include "core/sweep.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "funcs/registry.hh"
#include "obs/registry.hh"
#include "obs/span.hh"
#include "sim/parallel.hh"

namespace halsim::core {

namespace {

/** Build tag stamped into trace metadata. A constant by design:
 *  artifacts must be byte-identical across checkouts and rebuilds,
 *  so no git-describe, hostnames, or timestamps. */
constexpr const char *kBuildTag = "halsim";

/**
 * Write @p head, the non-empty @p items joined by commas, @p tail and
 * a newline to @p path (nothing when @p path is empty). A document
 * that cannot be written prints a diagnostic naming @p path and
 * exits 1.
 */
void
writeDocument(const std::string &path, const std::string &head,
              const std::vector<std::string> &items, const char *tail)
{
    if (path.empty())
        return;
    std::ofstream os(path, std::ios::binary);
    os << head;
    bool first = true;
    for (const std::string &item : items) {
        if (item.empty())
            continue;
        if (!first)
            os << ",";
        first = false;
        os << item;
    }
    os << tail << "\n";
    os.flush();
    if (!os) {
        std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
        std::exit(1);
    }
}

} // namespace

std::vector<RunResult>
runSweep(const std::vector<SweepPoint> &points, const SweepOptions &opts)
{
    std::vector<RunResult> results(points.size());
    SweepArtifacts artifacts(
        opts, points.size(),
        points.empty() ? "" : modeName(points[0].cfg.mode),
        points.empty() ? 0 : points[0].cfg.seed);
    parallelFor(points.size(), opts.threads, [&](std::size_t i) {
        SweepPoint p = points[i];
        applyObsFlags(opts, p.cfg.obs, p.cfg.slo);
        applyPowerFlags(opts, p.cfg);
        EventQueue eq;
        ServerSystem sys(eq, p.cfg);
        std::unique_ptr<net::RateProcess> rate;
        if (p.make_rate)
            rate = p.make_rate();
        else if (p.trace)
            rate = net::makeTrace(*p.trace);
        else
            rate = std::make_unique<net::ConstantRate>(p.rate_gbps);
        results[i] =
            sys.run(std::move(rate), p.warmup, p.measure, p.resample);
        artifacts.capture(i, p.label, modeName(p.cfg.mode),
                          funcs::functionName(p.cfg.function),
                          p.trace ? 0.0 : p.rate_gbps, results[i],
                          sys.obs());
    });
    artifacts.save();
    return results;
}

void
applyObsFlags(const SweepOptions &opts, obs::ObsConfig &obs,
              obs::SloConfig &slo)
{
    obs.stats = obs.stats || !opts.stats_path.empty();
    if (!opts.trace_path.empty()) {
        obs.trace = true;
        obs.spans = true;
    }
    if (!opts.flightrec_path.empty()) {
        obs.flightrec = true;
        if (opts.fr_armed != 0)
            obs.fr_armed = opts.fr_armed;
        else if (obs.fr_armed == 0)
            obs.fr_armed = (1u << obs::kFrTriggerKinds) - 1;
    }
    if (opts.slo_p99_us > 0.0 && !slo.enabled())
        slo.target_p99_us = opts.slo_p99_us;
}

SweepArtifacts::SweepArtifacts(const SweepOptions &opts,
                               std::size_t points,
                               const std::string &preset,
                               std::uint64_t seed)
    : opts_(opts), rows_(points), stats_(points), traces_(points + 1),
      frs_(points)
{
    if (points > 0)
        traces_[0] = "{\"name\":\"run_metadata\",\"ph\":\"M\",\"pid\":0,"
                     "\"tid\":0,\"args\":{\"bench\":\"" +
                     obs::jsonEscape(opts.bench_name) + "\",\"preset\":\"" +
                     obs::jsonEscape(preset) +
                     "\",\"seed\":" + std::to_string(seed) +
                     ",\"build\":\"" + kBuildTag + "\"}}";
}

void
SweepArtifacts::capture(std::size_t i, const std::string &label,
                        std::string_view mode, std::string_view function,
                        double rate_gbps, const RunResult &r,
                        const obs::Observability *obs)
{
    const std::string labelled =
        "{\"label\":\"" + obs::jsonEscape(label) + "\",";
    if (!opts_.json_path.empty()) {
        std::ostringstream os;
        os << labelled << "\"mode\":\"" << mode << "\",\"function\":\""
           << function << "\",\"rate_gbps\":" << obs::jsonNumber(rate_gbps)
           << ",";
        r.toJsonFields(os);
        os << "}";
        rows_[i] = os.str();
    }
    if (obs == nullptr)
        return;
    if (!opts_.stats_path.empty()) {
        std::ostringstream os;
        os << labelled << "\"stats\":";
        obs->writeStatsJson(os);
        os << "}";
        stats_[i] = os.str();
    }
    if (!opts_.trace_path.empty() && obs->tracer() != nullptr) {
        std::ostringstream os;
        bool first = true;
        obs->tracer()->writeChromeEvents(os, static_cast<int>(i), first);
        traces_[i + 1] = os.str();
    }
    if (!opts_.flightrec_path.empty() &&
        obs->flightRecorder() != nullptr) {
        std::ostringstream os;
        os << labelled << "\"flightrec\":";
        obs->flightRecorder()->writeJson(os);
        os << "}";
        frs_[i] = os.str();
    }
}

void
SweepArtifacts::save() const
{
    const std::string points_head =
        "{\"bench\":\"" + obs::jsonEscape(opts_.bench_name) +
        "\",\"points\":[";
    writeDocument(opts_.json_path, points_head, rows_, "]}");
    writeDocument(opts_.stats_path, points_head, stats_, "]}");
    writeDocument(opts_.trace_path, "{\"traceEvents\":[", traces_,
                  "],\"displayTimeUnit\":\"ns\"}");
    writeDocument(opts_.flightrec_path, points_head, frs_, "]}");
}

void
ArgRegistrar::value(std::string name, std::string metavar,
                    std::string help,
                    std::function<std::string(const std::string &)> parse)
{
    Opt o;
    o.name = std::move(name);
    o.metavar = std::move(metavar);
    o.help = std::move(help);
    o.parse = std::move(parse);
    opts_.push_back(std::move(o));
}

void
ArgRegistrar::flag(std::string name, std::string help,
                   std::function<void()> set)
{
    Opt o;
    o.name = std::move(name);
    o.help = std::move(help);
    o.set = std::move(set);
    opts_.push_back(std::move(o));
}

void
ArgRegistrar::printUsage(std::FILE *out) const
{
    std::fprintf(out, "usage: %s", prog_.c_str());
    for (const Opt &o : opts_) {
        if (o.metavar.empty())
            std::fprintf(out, " [%s]", o.name.c_str());
        else
            std::fprintf(out, " [%s %s]", o.name.c_str(),
                         o.metavar.c_str());
    }
    std::fprintf(out, "\n");
    if (!description_.empty())
        std::fprintf(out, "%s\n", description_.c_str());
    for (const Opt &o : opts_) {
        std::string left = o.name;
        if (!o.metavar.empty())
            left += " " + o.metavar;
        std::fprintf(out, "  %-22s %s\n", left.c_str(), o.help.c_str());
    }
}

void
ArgRegistrar::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            std::exit(0);
        }
        const Opt *match = nullptr;
        for (const Opt &o : opts_) {
            if (o.name == arg) {
                match = &o;
                break;
            }
        }
        if (match == nullptr) {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         prog_.c_str(), arg.c_str());
            printUsage(stderr);
            std::exit(2);
        }
        if (match->parse) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a %s operand\n",
                             prog_.c_str(), match->name.c_str(),
                             match->metavar.c_str());
                printUsage(stderr);
                std::exit(2);
            }
            const std::string error = match->parse(argv[++i]);
            if (!error.empty()) {
                std::fprintf(stderr, "%s: %s: %s\n", prog_.c_str(),
                             match->name.c_str(), error.c_str());
                std::exit(2);
            }
        } else {
            match->set();
        }
    }
}

std::optional<unsigned>
parseThreadsValue(std::string_view text, std::string *error)
{
    auto fail = [&](const std::string &why) -> std::optional<unsigned> {
        if (error != nullptr)
            *error = why;
        return std::nullopt;
    };
    if (text.empty())
        return fail("thread count is empty; give a positive integer "
                    "or 'all'");
    if (text == "all")
        return 0; // SweepOptions sentinel: all hardware threads
    if (text[0] == '-')
        return fail("thread count cannot be negative: '" +
                    std::string(text) + "'");
    const auto value = parseNumberArg<unsigned>(text);
    if (!value)
        return fail("thread count is not a number: '" +
                    std::string(text) + "'");
    if (*value == 0)
        return fail("thread count must be positive; use 'all' for "
                    "every hardware thread");
    if (*value > kMaxThreads)
        return fail("thread count out of range (1.." +
                    std::to_string(kMaxThreads) + "): '" +
                    std::string(text) + "'");
    return *value;
}

void
registerSweepFlags(ArgRegistrar &reg, SweepOptions &opts)
{
    reg.value("--threads", "N|all",
              "sweep worker threads (all = every hardware thread)",
              [&opts](const std::string &v) -> std::string {
                  std::string error;
                  const auto parsed = parseThreadsValue(v.c_str(), &error);
                  if (!parsed)
                      return error;
                  opts.threads = *parsed;
                  return {};
              });
    reg.value("--json", "PATH", "write the results artifact here",
              [&opts](const std::string &v) -> std::string {
                  opts.json_path = v;
                  return {};
              });
    reg.value("--stats-out", "PATH",
              "write the per-point stats trees here",
              [&opts](const std::string &v) -> std::string {
                  opts.stats_path = v;
                  return {};
              });
    reg.value("--trace", "PATH",
              "trace packet stages and request spans; write the Chrome "
              "trace_event JSON here",
              [&opts](const std::string &v) -> std::string {
                  opts.trace_path = v;
                  return {};
              });
    reg.value("--flightrec", "PATH",
              "enable the flight recorder and write its dumps here",
              [&opts](const std::string &v) -> std::string {
                  opts.flightrec_path = v;
                  return {};
              });
    reg.value(
        "--fr-trigger", "LIST",
        "arm flight-recorder triggers: comma-separated subset of "
        "fault,slo,shed,gov, or all",
        [&opts](const std::string &v) -> std::string {
            std::uint32_t mask = 0;
            std::size_t pos = 0;
            for (;;) {
                const std::size_t comma = v.find(',', pos);
                const std::string tok =
                    comma == std::string::npos
                        ? v.substr(pos)
                        : v.substr(pos, comma - pos);
                if (tok == "all")
                    mask |= (1u << obs::kFrTriggerKinds) - 1;
                else if (tok == "fault")
                    mask |= obs::frTriggerBit(obs::FrTrigger::Fault);
                else if (tok == "slo")
                    mask |= obs::frTriggerBit(obs::FrTrigger::Slo);
                else if (tok == "shed")
                    mask |= obs::frTriggerBit(obs::FrTrigger::Shed);
                else if (tok == "gov")
                    mask |= obs::frTriggerBit(obs::FrTrigger::Gov);
                else
                    return "unknown trigger '" + tok +
                           "' (want fault, slo, shed, gov, or all)";
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            opts.fr_armed = mask;
            return {};
        });
    reg.value("--slo-p99", "US",
              "arm the SLO monitor at this p99 target (microseconds)",
              [&opts](const std::string &v) -> std::string {
                  const auto t = parseNumberArg<Tick>(v, kUs);
                  if (!t || *t == 0)
                      return "needs a positive microsecond target, "
                             "got '" +
                             v + "'";
                  opts.slo_p99_us = ticksToUs(*t);
                  return {};
              });
    registerPowerFlags(reg, opts);
}

void
registerPowerFlags(ArgRegistrar &reg, SweepOptions &opts)
{
    reg.value("--governor", "on|off",
              "force the core-scaling governor on or off",
              [&opts](const std::string &v) -> std::string {
                  if (v == "on")
                      opts.governor = true;
                  else if (v == "off")
                      opts.governor = false;
                  else
                      return "needs on or off, got '" + v + "'";
                  return {};
              });
}

void
applyPowerFlags(const SweepOptions &opts, ServerConfig &cfg)
{
    if (opts.governor)
        cfg.power.governor.enabled = *opts.governor;
}

SweepOptions
parseSweepArgs(int argc, char **argv, std::string bench_name, bool *quick,
               const std::string &description,
               const std::function<void(ArgRegistrar &)> &extra)
{
    SweepOptions opts;
    opts.bench_name = std::move(bench_name);
    ArgRegistrar reg(argv[0], description);
    registerSweepFlags(reg, opts);
    if (quick != nullptr)
        reg.flag("--quick", "CI-sized run (shorter windows, fewer points)",
                 [quick, &opts] {
                     *quick = true;
                     opts.bench_name += "_quick";
                 });
    if (extra)
        extra(reg);
    reg.parse(argc, argv);
    return opts;
}

} // namespace halsim::core
