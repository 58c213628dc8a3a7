/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator: system construction, run(), each isolated layer drive, and
 * every generator-epoch sample. Spans stay in memory and are written
 * once, as Chrome trace JSON, when the benchmark exits.
 */

#ifndef PERFBENCH_SPAN_LOG_HH
#define PERFBENCH_SPAN_LOG_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog
{
  public:
    using Id = std::uint32_t;
    /** Parent of root spans. */
    static constexpr Id kRoot = 0;

    using Args = std::vector<std::pair<std::string, double>>;

    SpanLog() : origin_(std::chrono::steady_clock::now()) {}

    /** Open a span; returns its id (never kRoot). */
    Id begin(std::string name, Id parent = kRoot);

    /** Close span @p id now. */
    void end(Id id);

    /** A zero-length span carrying @p args. */
    void instant(std::string name, Id parent, Args args);

    /** Host seconds between begin() and end() of @p id. */
    double seconds(Id id) const;

    /** The whole log as one Chrome trace document; @p meta becomes
     *  the top-level "metadata" object. */
    void writeChrome(std::ostream &os, const Args &meta,
                     const std::vector<std::pair<std::string, std::string>>
                         &labels) const;

  private:
    struct Span
    {
        std::string name;
        Id parent = kRoot;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1;
        Args args;
    };

    std::int64_t nowNs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Closes a span when it goes out of scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name,
               SpanLog::Id parent = SpanLog::kRoot)
        : log_(log), id_(log.begin(std::move(name), parent))
    {}
    ~ScopedSpan() { log_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    SpanLog::Id id() const { return id_; }

  private:
    SpanLog &log_;
    SpanLog::Id id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_LOG_HH
