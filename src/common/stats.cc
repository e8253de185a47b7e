#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "stat_registry.hh"

namespace lsdgnn {
namespace stats {

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo),
      hi_(hi),
      invWidth_(static_cast<double>(buckets) / (hi - lo)),
      counts(buckets, 0)
{
    lsd_assert(hi > lo, "histogram range must be non-empty");
    lsd_assert(buckets > 0, "histogram needs at least one bucket");
}

void
Histogram::sample(double v, std::uint64_t weight)
{
    using detail::loadRelaxed;
    using detail::storeRelaxed;
    storeRelaxed(total, loadRelaxed(total) + weight);
    if (v < lo_) {
        storeRelaxed(under, loadRelaxed(under) + weight);
        return;
    }
    if (v >= hi_) {
        storeRelaxed(over, loadRelaxed(over) + weight);
        return;
    }
    auto idx = static_cast<std::size_t>((v - lo_) * invWidth_);
    idx = std::min(idx, counts.size() - 1);
    storeRelaxed(counts[idx], loadRelaxed(counts[idx]) + weight);
}

double
bucketPercentile(double lo, double hi,
                 const std::vector<std::uint64_t> &counts,
                 std::uint64_t under, std::uint64_t over,
                 std::uint64_t total, double q)
{
    lsd_assert(q >= 0.0 && q <= 1.0, "percentile requires q in [0,1]");
    if (total == 0)
        return lo;
    if (over == total)
        return hi; // everything sits above the tracked range
    const double width = (hi - lo) / static_cast<double>(counts.size());
    if (q == 0.0) {
        // Lower edge of the first populated bin.
        if (under > 0)
            return lo;
        for (std::size_t i = 0; i < counts.size(); ++i)
            if (counts[i] > 0)
                return lo + width * static_cast<double>(i);
        return hi; // unreachable: over < total and buckets empty
    }
    const double target = q * static_cast<double>(total);
    double seen = static_cast<double>(under);
    if (under > 0 && seen >= target)
        return lo;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double next = seen + static_cast<double>(counts[i]);
        if (next >= target && counts[i] > 0) {
            const double frac =
                (target - seen) / static_cast<double>(counts[i]);
            return lo + width * (static_cast<double>(i) + frac);
        }
        seen = next;
    }
    return hi;
}

double
Histogram::percentile(double q) const
{
    // Snapshot the buckets with relaxed loads so a live reader never
    // races a concurrent sample(); the result is approximate under
    // concurrent mutation, exactly like every other live export.
    std::vector<std::uint64_t> snap(counts.size());
    std::uint64_t in_range = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        snap[i] = detail::loadRelaxed(counts[i]);
        in_range += snap[i];
    }
    const std::uint64_t u = detail::loadRelaxed(under);
    const std::uint64_t o = detail::loadRelaxed(over);
    // Recompute the total from the parts: the independently-loaded
    // `total` cell may be ahead of a bucket that sample() has not
    // written yet, and bucketPercentile expects them to agree.
    return bucketPercentile(lo_, hi_, snap, u, o, u + o + in_range, q);
}

void
Histogram::reset()
{
    for (auto &c : counts)
        detail::storeRelaxed(c, std::uint64_t{0});
    detail::storeRelaxed(under, std::uint64_t{0});
    detail::storeRelaxed(over, std::uint64_t{0});
    detail::storeRelaxed(total, std::uint64_t{0});
}

StatGroup::StatGroup(std::string name) : name_(std::move(name))
{
    StatRegistry::instance().add(this);
}

StatGroup::~StatGroup()
{
    detach();
}

void
StatGroup::detach()
{
    StatRegistry::instance().remove(this);
}

void
StatGroup::addCounter(const std::string &name, Counter *c,
                      const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    lsd_assert(c != nullptr, "null counter registered as ", name);
    const bool inserted = counters.emplace(name,
        CounterEntry{c, desc}).second;
    lsd_assert(inserted, "duplicate counter name: ", name);
}

void
StatGroup::addAverage(const std::string &name, Average *a,
                      const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    lsd_assert(a != nullptr, "null average registered as ", name);
    const bool inserted = averages.emplace(name,
        AverageEntry{a, desc}).second;
    lsd_assert(inserted, "duplicate average name: ", name);
}

void
StatGroup::addHistogram(const std::string &name, Histogram *h,
                        const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mutex_);
    lsd_assert(h != nullptr, "null histogram registered as ", name);
    const bool inserted = histograms.emplace(name,
        HistogramEntry{h, desc}).second;
    lsd_assert(inserted, "duplicate histogram name: ", name);
}

const Counter &
StatGroup::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters.find(name);
    if (it == counters.end())
        lsd_panic("unknown counter '", name, "' in group '", name_, "'");
    return *it->second.stat;
}

const Average &
StatGroup::average(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = averages.find(name);
    if (it == averages.end())
        lsd_panic("unknown average '", name, "' in group '", name_, "'");
    return *it->second.stat;
}

const Histogram &
StatGroup::histogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms.find(name);
    if (it == histograms.end())
        lsd_panic("unknown histogram '", name, "' in group '", name_, "'");
    return *it->second.stat;
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters.count(name) > 0;
}

bool
StatGroup::hasHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return histograms.count(name) > 0;
}

void
StatGroup::report(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, entry] : counters) {
        os << name_ << "." << name << " " << entry.stat->value();
        if (!entry.desc.empty())
            os << " # " << entry.desc;
        os << "\n";
    }
    for (const auto &[name, entry] : averages) {
        os << name_ << "." << name << " mean=" << entry.stat->mean()
           << " min=" << entry.stat->min()
           << " max=" << entry.stat->max()
           << " n=" << entry.stat->samples();
        if (!entry.desc.empty())
            os << " # " << entry.desc;
        os << "\n";
    }
    for (const auto &[name, entry] : histograms) {
        const Histogram &h = *entry.stat;
        os << name_ << "." << name << " n=" << h.samples()
           << " p50=" << h.percentile(0.5)
           << " p90=" << h.percentile(0.9)
           << " p99=" << h.percentile(0.99)
           << " under=" << h.underflow() << " over=" << h.overflow();
        if (!entry.desc.empty())
            os << " # " << entry.desc;
        os << "\n";
    }
}

void
StatGroup::visitCounters(
    const std::function<void(const std::string &, const Counter &,
                             const std::string &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, entry] : counters)
        fn(name, *entry.stat, entry.desc);
}

void
StatGroup::visitAverages(
    const std::function<void(const std::string &, const Average &,
                             const std::string &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, entry] : averages)
        fn(name, *entry.stat, entry.desc);
}

void
StatGroup::visitHistograms(
    const std::function<void(const std::string &, const Histogram &,
                             const std::string &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, entry] : histograms)
        fn(name, *entry.stat, entry.desc);
}

} // namespace stats
} // namespace lsdgnn
