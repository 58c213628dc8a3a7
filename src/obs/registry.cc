#include "obs/registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace halsim::obs {

namespace {

bool
validPath(const std::string &path)
{
    if (path.empty() || path.front() == '.' || path.back() == '.')
        return false;
    bool prev_dot = false;
    for (char c : path) {
        if (c == '.') {
            if (prev_dot)
                return false;
            prev_dot = true;
            continue;
        }
        prev_dot = false;
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

std::string
jsonNumber(double v)
{
    if (std::isnan(v) || std::isinf(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    for (int prec = 1; prec < 17; ++prec) {
        char probe[64];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(probe, "%lf", &back);
        if (back == v)
            return probe;
    }
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

StatsRegistry::Entry &
StatsRegistry::addEntry(const std::string &path, Kind kind)
{
    if (!validPath(path)) {
        throw std::invalid_argument(
            "stats path '" + path +
            "' is not dotted lowercase [a-z0-9_] segments");
    }
    for (const auto &e : entries_) {
        if (e->path == path) {
            throw std::invalid_argument("stats path '" + path +
                                        "' registered twice");
        }
    }
    entries_.push_back(std::make_unique<Entry>());
    Entry &e = *entries_.back();
    e.path = path;
    e.kind = kind;
    return e;
}

const StatsRegistry::Entry *
StatsRegistry::find(const std::string &path, Kind kind) const
{
    for (const auto &e : entries_) {
        if (e->kind == kind && e->path == path)
            return e.get();
    }
    return nullptr;
}

Histogram *
StatsRegistry::histogram(const std::string &path, double lo, double hi,
                         unsigned bins_per_decade)
{
    Entry &e = addEntry(path, Kind::Histogram);
    e.hist = std::make_unique<Histogram>(lo, hi, bins_per_decade);
    return e.hist.get();
}

void
StatsRegistry::fnCounter(const std::string &path,
                         std::function<std::uint64_t()> read)
{
    if (!read)
        throw std::invalid_argument("fnCounter '" + path +
                                    "' needs a read function");
    addEntry(path, Kind::FnCounter).readCounter = std::move(read);
}

void
StatsRegistry::fnGauge(const std::string &path,
                       std::function<double()> read)
{
    if (!read)
        throw std::invalid_argument("fnGauge '" + path +
                                    "' needs a read function");
    addEntry(path, Kind::FnGauge).readGauge = std::move(read);
}

void
StatsRegistry::probe(const std::string &path,
                     std::function<double()> read)
{
    probe(path, std::move(read), ProbeOptions{});
}

void
StatsRegistry::probe(const std::string &path,
                     std::function<double()> read, ProbeOptions opt)
{
    if (!read)
        throw std::invalid_argument("probe '" + path +
                                    "' needs a read function");
    Entry &e = addEntry(path, Kind::Probe);
    e.readProbe = std::move(read);
    e.hist = std::make_unique<Histogram>(opt.hist_lo, opt.hist_hi,
                                         opt.hist_bins_per_decade);
}

void
StatsRegistry::sampleProbes()
{
    for (auto &e : entries_) {
        if (e->kind != Kind::Probe)
            continue;
        const double v = e->readProbe();
        e->accum.sample(v);
        e->hist->sample(v);
    }
    ++sampleEpochs_;
}

const Histogram *
StatsRegistry::findHistogram(const std::string &path) const
{
    const Entry *e = find(path, Kind::Histogram);
    return e ? e->hist.get() : nullptr;
}

std::uint64_t
StatsRegistry::counterValue(const std::string &path) const
{
    const Entry *e = find(path, Kind::FnCounter);
    return e ? e->readCounter() : 0;
}

double
StatsRegistry::gaugeValue(const std::string &path) const
{
    const Entry *e = find(path, Kind::FnGauge);
    return e ? e->readGauge() : 0.0;
}

const Accumulator *
StatsRegistry::probeSummary(const std::string &path) const
{
    const Entry *e = find(path, Kind::Probe);
    return e ? &e->accum : nullptr;
}

const Histogram *
StatsRegistry::probeHistogram(const std::string &path) const
{
    const Entry *e = find(path, Kind::Probe);
    return e ? e->hist.get() : nullptr;
}

void
StatsRegistry::resetAll()
{
    for (auto &e : entries_) {
        e->accum.reset();
        if (e->hist)
            e->hist->reset();
    }
    sampleEpochs_ = 0;
}

void
StatsRegistry::writeLeafJson(std::ostream &os, const Entry &e) const
{
    switch (e.kind) {
      case Kind::FnCounter:
        os << e.readCounter();
        break;
      case Kind::FnGauge:
        os << jsonNumber(e.readGauge());
        break;
      case Kind::Histogram:
      case Kind::Probe: {
        const Histogram &h = *e.hist;
        os << "{\"count\":" << h.count()
           << ",\"mean\":" << jsonNumber(h.mean())
           << ",\"min\":" << jsonNumber(h.minSample())
           << ",\"max\":" << jsonNumber(h.maxSample())
           << ",\"p50\":" << jsonNumber(h.quantile(0.50))
           << ",\"p90\":" << jsonNumber(h.quantile(0.90))
           << ",\"p99\":" << jsonNumber(h.quantile(0.99)) << "}";
        break;
      }
    }
}

void
StatsRegistry::writeJson(std::ostream &os) const
{
    // Render the dotted paths as a nested object. Entries are sorted
    // lexicographically; in the dotted grammar a branch name never
    // also names a leaf (registration would have allowed it, but the
    // instrumented tree never does), so a simple prefix walk works.
    std::vector<const Entry *> sorted;
    sorted.reserve(entries_.size());
    for (const auto &e : entries_)
        sorted.push_back(e.get());
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry *a, const Entry *b) {
                  return a->path < b->path;
              });

    std::vector<std::string> open; // current branch stack
    os << "{";
    for (std::size_t n = 0; n < sorted.size(); ++n) {
        const Entry &e = *sorted[n];
        std::vector<std::string> parts;
        std::size_t start = 0;
        for (std::size_t i = 0; i <= e.path.size(); ++i) {
            if (i == e.path.size() || e.path[i] == '.') {
                parts.push_back(e.path.substr(start, i - start));
                start = i + 1;
            }
        }
        // Longest common prefix with the open branch stack.
        std::size_t common = 0;
        while (common < open.size() && common + 1 < parts.size() &&
               open[common] == parts[common]) {
            ++common;
        }
        for (std::size_t i = open.size(); i > common; --i)
            os << "}";
        open.resize(common);
        if (n)
            os << ",";
        for (std::size_t i = common; i + 1 < parts.size(); ++i) {
            os << "\"" << parts[i] << "\":{";
            open.push_back(parts[i]);
        }
        os << "\"" << parts.back() << "\":";
        writeLeafJson(os, e);
    }
    for (std::size_t i = open.size(); i > 0; --i)
        os << "}";
    os << "}";
}

} // namespace halsim::obs
