/**
 * @file
 * Lightweight statistics package.
 *
 * Components register named scalar counters, averages and histograms
 * with a StatGroup; benches and tests read them back by name. Modeled
 * on (a small subset of) the gem5 stats framework.
 *
 * Concurrency model: every stat is *single-writer* (the owning
 * component mutates it from one thread, or under its own lock), but
 * may be read at any time by live exporters — the flight recorder
 * dumps stat deltas mid-anomaly, by definition while writers are
 * running. All value cells are therefore accessed through relaxed
 * atomic loads/stores (plain moves on x86 — no read-modify-write, no
 * fence, no hot-path cost), which makes concurrent reads race-free
 * without promising cross-stat consistency: a reader may see an
 * Average whose sum is newer than its count. Quiesce writers when
 * exact numbers matter, exactly as before.
 */

#ifndef LSDGNN_COMMON_STATS_HH
#define LSDGNN_COMMON_STATS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "logging.hh"

namespace lsdgnn {
namespace stats {

namespace detail {

/** Relaxed atomic load of a single-writer stat cell. */
template <typename T>
inline T
loadRelaxed(const T &cell)
{
    return std::atomic_ref<T>(const_cast<T &>(cell))
        .load(std::memory_order_relaxed);
}

/** Relaxed atomic store to a single-writer stat cell. */
template <typename T>
inline void
storeRelaxed(T &cell, T v)
{
    std::atomic_ref<T>(cell).store(v, std::memory_order_relaxed);
}

} // namespace detail

/** Monotonically increasing scalar counter. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        detail::storeRelaxed(count_, detail::loadRelaxed(count_) + n);
    }

    std::uint64_t value() const { return detail::loadRelaxed(count_); }
    void reset() { detail::storeRelaxed(count_, std::uint64_t{0}); }

  private:
    std::uint64_t count_ = 0;
};

/** Running mean/min/max of a stream of samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        using detail::loadRelaxed;
        using detail::storeRelaxed;
        const std::uint64_t n = loadRelaxed(n_) + 1;
        storeRelaxed(sum_, loadRelaxed(sum_) + v);
        if (v < loadRelaxed(min_) || n == 1)
            storeRelaxed(min_, v);
        if (v > loadRelaxed(max_) || n == 1)
            storeRelaxed(max_, v);
        storeRelaxed(n_, n);
    }

    double
    mean() const
    {
        const auto n = samples();
        return n ? sum() / static_cast<double>(n) : 0.0;
    }

    double min() const { return samples() ? detail::loadRelaxed(min_) : 0.0; }
    double max() const { return samples() ? detail::loadRelaxed(max_) : 0.0; }
    std::uint64_t samples() const { return detail::loadRelaxed(n_); }
    double sum() const { return detail::loadRelaxed(sum_); }

    void
    reset()
    {
        detail::storeRelaxed(sum_, 0.0);
        detail::storeRelaxed(min_, 0.0);
        detail::storeRelaxed(max_, 0.0);
        detail::storeRelaxed(n_, std::uint64_t{0});
    }

  private:
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::uint64_t n_ = 0;
};

/** Fixed-bucket linear histogram over [lo, hi) with under/overflow. */
class Histogram
{
  public:
    Histogram() : Histogram(0.0, 1.0, 10) {}

    /**
     * @param lo Lower bound of the tracked range.
     * @param hi Upper bound (exclusive) of the tracked range.
     * @param buckets Number of equal-width buckets.
     */
    Histogram(double lo, double hi, std::size_t buckets);

    void sample(double v, std::uint64_t weight = 1);

    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return detail::loadRelaxed(counts.at(i));
    }

    std::size_t buckets() const { return counts.size(); }
    std::uint64_t underflow() const { return detail::loadRelaxed(under); }
    std::uint64_t overflow() const { return detail::loadRelaxed(over); }
    std::uint64_t samples() const { return detail::loadRelaxed(total); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /**
     * Value below which fraction @p q of samples fall (approximate,
     * linearly interpolated inside a bucket).
     *
     * Edge semantics: an empty histogram reports lo() for every q;
     * q=0 reports the lower edge of the first populated bucket (lo()
     * when the underflow bin is populated); q=1 reports the upper
     * edge of the last populated bucket (hi() when the overflow bin
     * is populated); a histogram whose samples all sit in the
     * overflow bin reports hi() for every q > 0.
     */
    double percentile(double q) const;

    /**
     * Zero every bucket. Prefer snapshot-delta windowing
     * (stats::WindowedStats) over reset(): reset is *destructive and
     * global* — two exporters windowing the same histogram by
     * resetting it race each other (one window swallows the other's
     * samples, or both see them). Snapshot-delta readers each keep a
     * private baseline and subtract, so any number of concurrent
     * exporters see every sample exactly once per window.
     */
    void reset();

  private:
    double lo_;
    double hi_;
    double invWidth_; ///< buckets / (hi - lo), hoisted off sample()
    std::vector<std::uint64_t> counts;
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    std::uint64_t total = 0;
};

/**
 * Percentile over an explicit bucket vector (the shared engine behind
 * Histogram::percentile and windowed-delta percentiles). Semantics
 * match Histogram::percentile exactly; @p total must equal under +
 * over + sum(counts).
 */
double bucketPercentile(double lo, double hi,
                        const std::vector<std::uint64_t> &counts,
                        std::uint64_t under, std::uint64_t over,
                        std::uint64_t total, double q);

/**
 * Named collection of statistics.
 *
 * Ownership of the underlying stat objects stays with the registering
 * component; the group stores pointers and formats a report. Every
 * group announces itself to the process-wide StatRegistry for its
 * lifetime, which is how benches export machine-readable results
 * without holding component references.
 *
 * The entry maps are guarded by an internal mutex: a component may
 * still be add*()-ing stats in its own thread when a live exporter
 * (flight-recorder dump, windowed collect) visits the group through
 * the registry.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);
    ~StatGroup();

    /**
     * Leave the StatRegistry now rather than at destruction; waits
     * until no exporter can still reach the group. Idempotent. For a
     * group that outlives the stats it holds: a sim::Component's group
     * lives in the base class, its stats in the derived one, so the
     * derived destructor detaches the group first.
     */
    void detach();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    void addCounter(const std::string &name, Counter *c,
                    const std::string &desc = "");
    void addAverage(const std::string &name, Average *a,
                    const std::string &desc = "");
    void addHistogram(const std::string &name, Histogram *h,
                      const std::string &desc = "");

    /** Look up a registered counter; panics when missing. */
    const Counter &counter(const std::string &name) const;
    /** Look up a registered average; panics when missing. */
    const Average &average(const std::string &name) const;
    /** Look up a registered histogram; panics when missing. */
    const Histogram &histogram(const std::string &name) const;

    bool hasCounter(const std::string &name) const;
    bool hasHistogram(const std::string &name) const;

    /** Write "group.stat value # desc" lines, gem5 style. */
    void report(std::ostream &os) const;

    /** Visit stats by kind, in name order (registry/sampler export). */
    void visitCounters(
        const std::function<void(const std::string &, const Counter &,
                                 const std::string &)> &fn) const;
    void visitAverages(
        const std::function<void(const std::string &, const Average &,
                                 const std::string &)> &fn) const;
    void visitHistograms(
        const std::function<void(const std::string &, const Histogram &,
                                 const std::string &)> &fn) const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    mutable std::mutex mutex_; ///< guards the entry maps below
    struct CounterEntry { Counter *stat; std::string desc; };
    struct AverageEntry { Average *stat; std::string desc; };
    struct HistogramEntry { Histogram *stat; std::string desc; };
    std::map<std::string, CounterEntry> counters;
    std::map<std::string, AverageEntry> averages;
    std::map<std::string, HistogramEntry> histograms;
};

} // namespace stats
} // namespace lsdgnn

#endif // LSDGNN_COMMON_STATS_HH
