#include "obs/report.hh"

#include <cstdio>
#include <fstream>

#include "obs/registry.hh"

namespace halsim::obs {

namespace {

bool
writeFile(const std::string &path, const SweepReport &r,
          void (SweepReport::*write)(std::ostream &) const)
{
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                     path.c_str());
        return false;
    }
    (r.*write)(os);
    os << "\n";
    return os.good();
}

} // namespace

void
SweepReport::writeResultsJson(std::ostream &os) const
{
    os << "{\"bench\":\"" << jsonEscape(bench_) << "\"";
    os << ",\"points\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        if (i)
            os << ",";
        os << rows_[i];
    }
    os << "]}";
}

void
SweepReport::writeStatsJson(std::ostream &os) const
{
    os << "{\"bench\":\"" << jsonEscape(bench_) << "\",\"points\":[";
    for (std::size_t i = 0; i < stats_.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"label\":\"" << jsonEscape(statsLabels_[i])
           << "\",\"stats\":" << stats_[i] << "}";
    }
    os << "]}";
}

void
SweepReport::writeTraceJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    if (hasMeta_) {
        os << "{\"name\":\"run_metadata\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":0,\"args\":{\"bench\":\""
           << jsonEscape(bench_) << "\",\"preset\":\""
           << jsonEscape(metaPreset_) << "\",\"seed\":" << metaSeed_
           << ",\"build\":\"" << kBuildTag << "\"}}";
        first = false;
    }
    for (const std::string &t : traces_) {
        if (t.empty())
            continue;
        if (!first)
            os << ",";
        first = false;
        os << t;
    }
    os << "],\"displayTimeUnit\":\"ns\"}";
}

bool
SweepReport::saveResultsJson(const std::string &path) const
{
    return writeFile(path, *this, &SweepReport::writeResultsJson);
}

bool
SweepReport::saveStatsJson(const std::string &path) const
{
    return writeFile(path, *this, &SweepReport::writeStatsJson);
}

bool
SweepReport::saveTraceJson(const std::string &path) const
{
    return writeFile(path, *this, &SweepReport::writeTraceJson);
}

void
SweepReport::writeFlightRecJson(std::ostream &os) const
{
    os << "{\"bench\":\"" << jsonEscape(bench_) << "\",\"points\":[";
    for (std::size_t i = 0; i < flightrecs_.size(); ++i) {
        if (i)
            os << ",";
        os << "{\"label\":\"" << jsonEscape(frLabels_[i])
           << "\",\"flightrec\":" << flightrecs_[i] << "}";
    }
    os << "]}";
}

bool
SweepReport::saveFlightRecJson(const std::string &path) const
{
    return writeFile(path, *this, &SweepReport::writeFlightRecJson);
}

} // namespace halsim::obs
