/**
 * @file
 * In-memory span recording for the traced run.
 *
 * A span is a named [start, end] interval with an id and the id of
 * the span that caused it (0 for a root). Each recording thread owns
 * one SpanLog; logs are merged and written out after the run. A null
 * SpanLog pointer means tracing is off: ScopedSpan then records
 * nothing, so the untraced run keeps no spans at all.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    const char *name = "";
    SteadyClock::time_point start{};
    SteadyClock::time_point end{};
};

/** One thread's spans. Ids are unique across logs with distinct tags. */
class SpanLog
{
  public:
    explicit SpanLog(std::uint32_t tag)
        : next_(static_cast<std::uint64_t>(tag) << 40)
    {}

    std::uint64_t newId() { return ++next_; }
    void add(const Span &span) { spans_.push_back(span); }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::uint64_t next_;
    std::vector<Span> spans_;
};

/** Records [construction, destruction) as one span of @p log. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::uint64_t parent = 0)
        : log_(log)
    {
        if (log_ == nullptr)
            return;
        span_.id = log_->newId();
        span_.parent = parent;
        span_.name = name;
        span_.start = SteadyClock::now();
    }

    ~ScopedSpan()
    {
        if (log_ == nullptr)
            return;
        span_.end = SteadyClock::now();
        log_->add(span_);
    }

    /** This span's id (0 when tracing is off). */
    std::uint64_t id() const { return span_.id; }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    Span span_;
};

/**
 * Self time of every span, grouped by span name, in microseconds: a
 * span's duration minus the part of it its children cover.
 */
std::map<std::string, std::vector<double>>
selfTimesUs(const std::vector<Span> &spans);

/** Write @p spans as JSON (times in us from the earliest start). */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
