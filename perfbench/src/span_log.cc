#include "span_log.hh"

#include <cstdio>

#include "obs/registry.hh"

namespace perfbench {

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

SpanLog::Id
SpanLog::begin(std::string name, Id parent)
{
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.start_ns = nowNs();
    spans_.push_back(std::move(s));
    return static_cast<Id>(spans_.size());
}

void
SpanLog::end(Id id)
{
    spans_[id - 1].end_ns = nowNs();
}

void
SpanLog::instant(std::string name, Id parent, Args args)
{
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.start_ns = nowNs();
    s.end_ns = s.start_ns;
    s.args = std::move(args);
    spans_.push_back(std::move(s));
}

double
SpanLog::seconds(Id id) const
{
    const Span &s = spans_[id - 1];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

void
SpanLog::writeChrome(
    std::ostream &os, const Args &meta,
    const std::vector<std::pair<std::string, std::string>> &labels) const
{
    const auto us = [](std::int64_t ns) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f",
                      static_cast<double>(ns) * 1e-3);
        return std::string(buf);
    };
    os << "{\"displayTimeUnit\":\"ns\",\"metadata\":{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        os << (first ? "" : ",") << "\"" << halsim::obs::jsonEscape(k)
           << "\":\"" << halsim::obs::jsonEscape(v) << "\"";
        first = false;
    }
    for (const auto &[k, v] : meta) {
        os << (first ? "" : ",") << "\"" << halsim::obs::jsonEscape(k)
           << "\":" << halsim::obs::jsonNumber(v);
        first = false;
    }
    os << "},\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const bool instant = s.end_ns == s.start_ns;
        os << (i ? ",\n" : "\n") << "{\"name\":\""
           << halsim::obs::jsonEscape(s.name) << "\",\"ph\":\""
           << (instant ? "i" : "X") << "\",\"pid\":1,\"tid\":1,\"ts\":"
           << us(s.start_ns);
        if (instant)
            os << ",\"s\":\"t\"";
        else
            os << ",\"dur\":" << us(s.end_ns - s.start_ns);
        os << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent;
        for (const auto &[k, v] : s.args)
            os << ",\"" << halsim::obs::jsonEscape(k)
               << "\":" << halsim::obs::jsonNumber(v);
        os << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
