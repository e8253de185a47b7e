#include "stat_sampler.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/stat_registry.hh"
#include "common/trace.hh"

namespace lsdgnn {
namespace sim {

StatSampler::StatSampler(EventQueue &eq, Tick period)
    : eventq(eq), period_(period)
{
    lsd_assert(period > 0, "sampler period must be positive");
}

void
StatSampler::watch(const stats::StatGroup &group)
{
    lsd_assert(!running, "cannot add groups to a running sampler");
    if (std::find(watched.begin(), watched.end(), &group) ==
        watched.end())
        watched.push_back(&group);
}

void
StatSampler::watchAll()
{
    stats::StatRegistry::instance().forEach(
        [this](const stats::StatGroup &group) { watch(group); });
}

void
StatSampler::start()
{
    lsd_assert(!running, "sampler already started");
    lsd_assert(!watched.empty(), "sampler has nothing to watch");
    columns_.clear();
    rows_.clear();
    for (const stats::StatGroup *group : watched) {
        group->visitCounters([&](const std::string &name,
                                 const stats::Counter &,
                                 const std::string &) {
            columns_.push_back(group->name() + "." + name);
        });
        group->visitAverages([&](const std::string &name,
                                 const stats::Average &,
                                 const std::string &) {
            columns_.push_back(group->name() + "." + name);
        });
    }
    running = true;
    sample();
    arm();
}

void
StatSampler::stop()
{
    if (armed) {
        eventq.deschedule(handle);
        armed = false;
    }
    running = false;
}

void
StatSampler::arm()
{
    armed = true;
    handle = eventq.scheduleAfter(period_, [this] {
        armed = false;
        sample();
        // Reschedule only while the simulation has other work: the
        // sampler must not keep the queue alive forever by itself.
        if (eventq.pending() > 0)
            arm();
        else
            running = false;
    }, Priority::Low);
}

void
StatSampler::sample()
{
    Row row;
    row.tick = eventq.now();
    row.values.reserve(columns_.size());
    for (const stats::StatGroup *group : watched) {
        group->visitCounters([&](const std::string &,
                                 const stats::Counter &c,
                                 const std::string &) {
            row.values.push_back(static_cast<double>(c.value()));
        });
        group->visitAverages([&](const std::string &,
                                 const stats::Average &a,
                                 const std::string &) {
            row.values.push_back(a.mean());
        });
    }
    if (trace::Tracer::enabled()) {
        auto &tracer = trace::Tracer::instance();
        for (std::size_t i = 0; i < columns_.size(); ++i)
            tracer.counter(0, columns_[i], row.tick, row.values[i]);
    }
    rows_.push_back(std::move(row));
}

void
StatSampler::exportCsv(std::ostream &os) const
{
    os << "tick";
    for (const std::string &col : columns_)
        os << "," << col;
    os << "\n";
    char buf[48];
    for (const Row &row : rows_) {
        os << row.tick;
        for (double v : row.values) {
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            os << "," << buf;
        }
        os << "\n";
    }
}

void
StatSampler::exportJson(std::ostream &os) const
{
    os << "{\"columns\":[";
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        std::string escaped;
        trace::appendEscaped(escaped, columns_[i]);
        os << (i ? "," : "") << "\"" << escaped << "\"";
    }
    os << "],\"rows\":[";
    char buf[48];
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        os << (r ? "," : "") << "[" << rows_[r].tick;
        for (double v : rows_[r].values) {
            if (std::isfinite(v)) {
                std::snprintf(buf, sizeof(buf), "%.17g", v);
                os << "," << buf;
            } else {
                os << ",null";
            }
        }
        os << "]";
    }
    os << "]}";
}

} // namespace sim
} // namespace lsdgnn
