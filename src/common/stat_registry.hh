/**
 * @file
 * Process-wide statistics registry.
 *
 * Every StatGroup registers itself here on construction and leaves on
 * destruction, so benches, examples and the periodic StatSampler can
 * enumerate all live statistics without plumbing component references
 * through every layer. On top of enumeration the registry offers
 * structured export: JSON (machine-readable bench output, including
 * histogram percentiles) and CSV, alongside the classic gem5-style
 * text report.
 */

#ifndef LSDGNN_COMMON_STAT_REGISTRY_HH
#define LSDGNN_COMMON_STAT_REGISTRY_HH

#include <chrono>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace lsdgnn {
namespace stats {

/**
 * Registry of all live StatGroups, in registration order.
 *
 * Group names may repeat (two engines in one process both build an
 * "axe.core0"); consumers disambiguate by order or scope their
 * measurement windows.
 *
 * StatGroups may be constructed and destroyed concurrently from
 * worker threads (the service layer builds one group per worker in the
 * worker's own thread) while other threads export. Every visit
 * (forEach and the exporters built on it, WindowedStats, the flight
 * recorder) holds a shared lock for its whole duration; add() and
 * remove() take it exclusively, so a group's destructor waits until no
 * visitor can still reach it.
 *
 * Lifetime rule: a stat must outlive its group. The group only holds
 * pointers, and stays reachable through the registry until its own
 * destructor unregisters it, so declare every Counter, Average and
 * Histogram before the StatGroup it is added to (members are destroyed
 * in reverse declaration order, locals likewise).
 *
 * A visitor must not construct or destroy a StatGroup, nor start
 * another visit, on the visiting thread: both would wait on the lock
 * the visit holds.
 *
 * The *values* inside a group stay owner-synchronized: exporting while
 * another thread mutates a counter yields a torn-but-harmless
 * snapshot, so quiesce writers (join workers) before exporting when
 * exact numbers matter.
 */
class StatRegistry
{
  public:
    /** The process-wide registry. */
    static StatRegistry &instance();

    /**
     * Invoke @p fn on every live group, oldest first, holding the
     * registry's shared lock throughout: no group visited can be
     * destroyed before the visit ends.
     */
    void forEach(const std::function<void(const StatGroup &)> &fn) const;

    /**
     * Write one JSON object:
     * {"groups":[{"name":...,"counters":{...},"averages":{...},
     *             "histograms":{...}}, ...]}
     * Histograms carry sample counts, tails and p50/p90/p95/p99.
     */
    void exportJson(std::ostream &os) const;

    /** Write "group,stat,kind,value" rows with a header line. */
    void exportCsv(std::ostream &os) const;

    /** gem5-style "group.stat value # desc" dump of every group. */
    void reportAll(std::ostream &os) const;

    // Called from StatGroup's constructor/destructor only.
    void add(StatGroup *group);
    void remove(StatGroup *group);

    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

  private:
    StatRegistry() = default;

    mutable std::shared_mutex mutex_;
    std::vector<StatGroup *> groups_;
};

/** Serialize one group as a JSON object (shared by registry/benches). */
void exportGroupJson(const StatGroup &group, std::ostream &os);

/**
 * One histogram's per-window delta: the bucket counts accumulated
 * since the previous collect(). Same-named histograms from same-named
 * groups (e.g. two workers' identically-named groups) are summed.
 */
struct WindowedHistogram {
    std::string group;
    std::string stat;
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t n = 0; ///< samples this window
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    std::vector<std::uint64_t> buckets;

    /** Percentile over this window's samples only. */
    double
    percentile(double q) const
    {
        return bucketPercentile(lo, hi, buckets, under, over, n, q);
    }
};

/** One counter's per-window delta. */
struct WindowedCounter {
    std::string group;
    std::string stat;
    std::uint64_t delta = 0;
};

/** Everything one collect() produced. */
struct WindowReport {
    double window_s = 0.0; ///< wall time since the previous collect
    std::vector<WindowedCounter> counters;
    std::vector<WindowedHistogram> histograms;

    /** Histogram delta by (group, stat); nullptr when absent. */
    const WindowedHistogram *findHistogram(const std::string &group,
                                           const std::string &stat) const;

    /** Counter delta by (group, stat); 0 when absent. */
    std::uint64_t counterDelta(const std::string &group,
                               const std::string &stat) const;

    /**
     * {"window_s":...,"counters":{"group.stat":delta,...},
     *  "histograms":{"group.stat":{"n":...,"p50":...,"p90":...,
     *                "p99":...,"p999":...},...}}
     */
    void exportJson(std::ostream &os) const;

    /** "group,stat,kind,value" rows (kind: delta/p50/p99/p999). */
    void exportCsv(std::ostream &os) const;
};

/**
 * Rolling time-window aggregator over the StatRegistry.
 *
 * Each collect() call reports the *delta* accumulated since the
 * previous collect() (the first call baselines against construction),
 * computed by snapshot subtraction against a private baseline — never
 * by resetting the underlying stats. Any number of WindowedStats
 * instances may therefore window the same registry concurrently and
 * each sees every sample exactly once per window; see
 * Histogram::reset() for why reset-based windowing cannot do this.
 *
 * Groups are selected by name prefix ("service", "mof.remote").
 * Same-named groups are summed (histograms only when their bucket
 * layout matches). A group that dies mid-window simply stops
 * contributing: deltas are clamped at zero, never negative.
 *
 * Thread-safety: one WindowedStats instance is single-owner. The
 * registry enumeration is thread-safe, but reading stat *values*
 * while their owner mutates them is a torn-but-harmless snapshot —
 * quiesce writers (or accept approximate windows) exactly as with
 * every other exporter.
 */
class WindowedStats
{
  public:
    /** @param prefixes Group-name prefixes to watch; empty = all. */
    explicit WindowedStats(std::vector<std::string> prefixes = {});
    ~WindowedStats(); // out-of-line: Totals is incomplete here

    /** Delta since the previous collect (or since construction). */
    WindowReport collect();

  private:
    struct Totals; ///< summed current values, keyed "group\x1fstat"

    std::vector<std::string> prefixes_;
    std::unique_ptr<Totals> baseline_;
    std::chrono::steady_clock::time_point baselineAt_;
};

} // namespace stats
} // namespace lsdgnn

#endif // LSDGNN_COMMON_STAT_REGISTRY_HH
