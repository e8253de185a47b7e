#include "stat_registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "common/trace.hh"

namespace lsdgnn {
namespace stats {

namespace {

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no inf/nan
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    trace::appendEscaped(out, s);
    out += "\"";
    return out;
}

} // namespace

StatRegistry &
StatRegistry::instance()
{
    // Deliberately leaked: StatGroups with static storage duration
    // unregister during exit, which must never touch a destroyed
    // registry regardless of construction order across TUs.
    static StatRegistry *registry = new StatRegistry;
    return *registry;
}

void
StatRegistry::add(StatGroup *group)
{
    lsd_assert(group != nullptr, "null group registered");
    const std::unique_lock lock(mutex_);
    groups_.push_back(group);
}

void
StatRegistry::remove(StatGroup *group)
{
    const std::unique_lock lock(mutex_);
    auto it = std::find(groups_.begin(), groups_.end(), group);
    if (it != groups_.end())
        groups_.erase(it);
}

void
StatRegistry::forEach(
    const std::function<void(const StatGroup &)> &fn) const
{
    // Visits are short (one export), and a group's destructor must not
    // free what a visitor is reading, so the lock spans the visit.
    const std::shared_lock lock(mutex_);
    for (const StatGroup *group : groups_)
        fn(*group);
}

void
exportGroupJson(const StatGroup &group, std::ostream &os)
{
    os << "{\"name\":" << jsonString(group.name());

    os << ",\"counters\":{";
    bool first = true;
    group.visitCounters([&](const std::string &name, const Counter &c,
                            const std::string &) {
        os << (first ? "" : ",") << jsonString(name) << ":" << c.value();
        first = false;
    });
    os << "}";

    os << ",\"averages\":{";
    first = true;
    group.visitAverages([&](const std::string &name, const Average &a,
                            const std::string &) {
        os << (first ? "" : ",") << jsonString(name) << ":{"
           << "\"mean\":" << jsonNumber(a.mean())
           << ",\"min\":" << jsonNumber(a.min())
           << ",\"max\":" << jsonNumber(a.max())
           << ",\"n\":" << a.samples() << "}";
        first = false;
    });
    os << "}";

    os << ",\"histograms\":{";
    first = true;
    group.visitHistograms([&](const std::string &name,
                              const Histogram &h, const std::string &) {
        os << (first ? "" : ",") << jsonString(name) << ":{"
           << "\"n\":" << h.samples()
           << ",\"lo\":" << jsonNumber(h.lo())
           << ",\"hi\":" << jsonNumber(h.hi())
           << ",\"under\":" << h.underflow()
           << ",\"over\":" << h.overflow()
           << ",\"p50\":" << jsonNumber(h.percentile(0.5))
           << ",\"p90\":" << jsonNumber(h.percentile(0.9))
           << ",\"p95\":" << jsonNumber(h.percentile(0.95))
           << ",\"p99\":" << jsonNumber(h.percentile(0.99))
           << ",\"buckets\":[";
        for (std::size_t i = 0; i < h.buckets(); ++i)
            os << (i ? "," : "") << h.bucketCount(i);
        os << "]}";
        first = false;
    });
    os << "}}";
}

void
StatRegistry::exportJson(std::ostream &os) const
{
    os << "{\"groups\":[";
    bool first = true;
    forEach([&](const StatGroup &group) {
        if (!first)
            os << ",";
        exportGroupJson(group, os);
        first = false;
    });
    os << "]}";
}

void
StatRegistry::exportCsv(std::ostream &os) const
{
    os << "group,stat,kind,value\n";
    forEach([&](const StatGroup &group) {
        group.visitCounters([&](const std::string &name,
                                const Counter &c, const std::string &) {
            os << group.name() << "," << name << ",counter,"
               << c.value() << "\n";
        });
        group.visitAverages([&](const std::string &name,
                                const Average &a, const std::string &) {
            os << group.name() << "," << name << ",mean,"
               << jsonNumber(a.mean()) << "\n";
        });
        group.visitHistograms([&](const std::string &name,
                                  const Histogram &h,
                                  const std::string &) {
            os << group.name() << "," << name << ",p50,"
               << jsonNumber(h.percentile(0.5)) << "\n";
            os << group.name() << "," << name << ",p95,"
               << jsonNumber(h.percentile(0.95)) << "\n";
            os << group.name() << "," << name << ",p99,"
               << jsonNumber(h.percentile(0.99)) << "\n";
        });
    });
}

void
StatRegistry::reportAll(std::ostream &os) const
{
    forEach([&](const StatGroup &group) { group.report(os); });
}

// ---------------------------------------------------------------------
// Windowed (delta) aggregation
// ---------------------------------------------------------------------

namespace {

// Composite key for baseline lookup; \x1f cannot appear in stat names.
std::string
statKey(const std::string &group, const std::string &stat)
{
    return group + '\x1f' + stat;
}

struct HistTotal {
    double lo = 0.0;
    double hi = 0.0;
    std::uint64_t n = 0;
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    std::vector<std::uint64_t> buckets;
};

} // namespace

struct WindowedStats::Totals {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistTotal> histograms;
};

WindowedStats::~WindowedStats() = default;

WindowedStats::WindowedStats(std::vector<std::string> prefixes)
    : prefixes_(std::move(prefixes)),
      baseline_(std::make_unique<Totals>()),
      baselineAt_(std::chrono::steady_clock::now())
{
    // Baseline = the registry's state right now, so the first
    // collect() reports only what accumulates after construction.
    collect();
}

WindowReport
WindowedStats::collect()
{
    const auto now = std::chrono::steady_clock::now();
    Totals current;

    const auto wanted = [this](const std::string &name) {
        if (prefixes_.empty())
            return true;
        for (const std::string &p : prefixes_)
            if (name.compare(0, p.size(), p) == 0)
                return true;
        return false;
    };

    StatRegistry::instance().forEach([&](const StatGroup &g) {
        if (!wanted(g.name()))
            return;
        g.visitCounters([&](const std::string &stat, const Counter &c,
                            const std::string &) {
            current.counters[statKey(g.name(), stat)] += c.value();
        });
        g.visitHistograms([&](const std::string &stat,
                              const Histogram &h, const std::string &) {
            HistTotal &t = current.histograms[statKey(g.name(), stat)];
            if (t.buckets.empty()) {
                t.lo = h.lo();
                t.hi = h.hi();
                t.buckets.assign(h.buckets(), 0);
            } else if (t.buckets.size() != h.buckets() ||
                       t.lo != h.lo() || t.hi != h.hi()) {
                return; // same-named histogram, different layout: skip
            }
            t.n += h.samples();
            t.under += h.underflow();
            t.over += h.overflow();
            for (std::size_t i = 0; i < h.buckets(); ++i)
                t.buckets[i] += h.bucketCount(i);
        });
    });

    WindowReport report;
    report.window_s =
        std::chrono::duration<double>(now - baselineAt_).count();

    const auto splitKey = [](const std::string &key, std::string &group,
                             std::string &stat) {
        const auto sep = key.find('\x1f');
        group = key.substr(0, sep);
        stat = key.substr(sep + 1);
    };
    // Clamped subtraction: a group that died mid-window makes the
    // current total drop below the baseline — report zero, not a
    // huge unsigned wraparound.
    const auto sub = [](std::uint64_t cur, std::uint64_t base) {
        return cur > base ? cur - base : std::uint64_t{0};
    };

    for (const auto &[key, cur] : current.counters) {
        const auto it = baseline_->counters.find(key);
        const std::uint64_t base =
            it == baseline_->counters.end() ? 0 : it->second;
        WindowedCounter wc;
        splitKey(key, wc.group, wc.stat);
        wc.delta = sub(cur, base);
        report.counters.push_back(std::move(wc));
    }

    for (const auto &[key, cur] : current.histograms) {
        const auto it = baseline_->histograms.find(key);
        const HistTotal *base =
            it == baseline_->histograms.end() ? nullptr : &it->second;
        const bool comparable =
            base != nullptr && base->buckets.size() == cur.buckets.size();
        WindowedHistogram wh;
        splitKey(key, wh.group, wh.stat);
        wh.lo = cur.lo;
        wh.hi = cur.hi;
        wh.n = sub(cur.n, comparable ? base->n : 0);
        wh.under = sub(cur.under, comparable ? base->under : 0);
        wh.over = sub(cur.over, comparable ? base->over : 0);
        wh.buckets.resize(cur.buckets.size());
        for (std::size_t i = 0; i < cur.buckets.size(); ++i)
            wh.buckets[i] =
                sub(cur.buckets[i], comparable ? base->buckets[i] : 0);
        report.histograms.push_back(std::move(wh));
    }

    *baseline_ = std::move(current);
    baselineAt_ = now;
    return report;
}

const WindowedHistogram *
WindowReport::findHistogram(const std::string &group,
                            const std::string &stat) const
{
    for (const WindowedHistogram &h : histograms)
        if (h.group == group && h.stat == stat)
            return &h;
    return nullptr;
}

std::uint64_t
WindowReport::counterDelta(const std::string &group,
                           const std::string &stat) const
{
    for (const WindowedCounter &c : counters)
        if (c.group == group && c.stat == stat)
            return c.delta;
    return 0;
}

void
WindowReport::exportJson(std::ostream &os) const
{
    os << "{\"window_s\":" << jsonNumber(window_s) << ",\"counters\":{";
    bool first = true;
    for (const WindowedCounter &c : counters) {
        os << (first ? "" : ",") << jsonString(c.group + "." + c.stat)
           << ":" << c.delta;
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const WindowedHistogram &h : histograms) {
        os << (first ? "" : ",") << jsonString(h.group + "." + h.stat)
           << ":{\"n\":" << h.n
           << ",\"p50\":" << jsonNumber(h.percentile(0.5))
           << ",\"p90\":" << jsonNumber(h.percentile(0.9))
           << ",\"p99\":" << jsonNumber(h.percentile(0.99))
           << ",\"p999\":" << jsonNumber(h.percentile(0.999)) << "}";
        first = false;
    }
    os << "}}";
}

void
WindowReport::exportCsv(std::ostream &os) const
{
    os << "group,stat,kind,value\n";
    for (const WindowedCounter &c : counters)
        os << c.group << "," << c.stat << ",delta," << c.delta << "\n";
    for (const WindowedHistogram &h : histograms) {
        os << h.group << "," << h.stat << ",n," << h.n << "\n";
        os << h.group << "," << h.stat << ",p50,"
           << jsonNumber(h.percentile(0.5)) << "\n";
        os << h.group << "," << h.stat << ",p99,"
           << jsonNumber(h.percentile(0.99)) << "\n";
        os << h.group << "," << h.stat << ",p999,"
           << jsonNumber(h.percentile(0.999)) << "\n";
    }
}

} // namespace stats
} // namespace lsdgnn
