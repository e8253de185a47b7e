#include "driver.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <future>

#include "common/rng.hh"

namespace perfbench {

namespace {

using namespace std::chrono_literals;

double
seconds(SteadyClock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
micros(SteadyClock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

SteadyClock::duration
toDuration(double s)
{
    return std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double>(s));
}

// Interval of the steal counter readings.
constexpr double kStealProbeS = 0.1;

/** The steal field of /proc/stat's aggregate cpu line; 0 if absent. */
std::uint64_t
stealTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    std::uint64_t field[8] = {};
    stat >> cpu;
    for (std::uint64_t &f : field)
        stat >> f;
    return stat && cpu == "cpu" ? field[7] : 0;
}

/** VmHWM of this process, MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/**
 * What the load thread keeps: a Sample per request in a buffer
 * touched up front (so its size does not track the request count), a
 * Record per stride-th request of a stream, and the window tally.
 */
class LoadLog
{
  public:
    LoadLog(const Workload &w, const LoadSpec &spec)
        : spans(1), stride_(std::max<std::uint32_t>(w.record_stride, 1))
    {
        const double capacity =
            w.max_qps * (spec.warmup_s + spec.window_s);
        samples_.resize(static_cast<std::size_t>(capacity) + 1);
    }

    void
    add(const Record &r, bool keep)
    {
        const float latency =
            r.payload && r.valid ? static_cast<float>(r.latency_us) : -1.0f;
        const Sample s{static_cast<float>(r.submit_at_s), latency};
        if (used_ < samples_.size())
            samples_[used_] = s;
        else
            samples_.push_back(s);
        ++used_;
        if (r.payload && !r.valid)
            ++tally.invalid;
        if (r.in_window) {
            ++tally.attempted;
            if (!r.payload || !r.valid)
                ++tally.failed;
        }
        if (keep || r.index % stride_ == 0)
            records.push_back(r);
    }

    /** Read the steal counter when kStealProbeS has passed. */
    void
    probeSteal(SteadyClock::time_point start, SteadyClock::time_point now)
    {
        if (now < next_probe_)
            return;
        steal.push_back({seconds(now - start), stealTicks()});
        next_probe_ = now + toDuration(kStealProbeS);
    }

    std::vector<Sample>
    takeSamples()
    {
        samples_.resize(used_);
        return std::move(samples_);
    }

    Tally tally;
    std::vector<Record> records;
    SpanLog spans;
    std::vector<StealProbe> steal;

  private:
    SteadyClock::time_point next_probe_{};
    std::vector<Sample> samples_;
    std::size_t used_ = 0;
    std::uint64_t stride_;
};

void
fillFromReply(Record &r, svc::Reply &reply, const ReplyCheck &check,
              bool &keep)
{
    r.batched_with = reply.batched_with;
    r.worker = reply.worker;
    const Verdict v = check(reply, r);
    r.payload = v.payload;
    r.valid = v.valid;
    r.digest = v.digest;
    keep = v.keep;
}

LoadRun
finish(LoadLog &log, SteadyClock::time_point start)
{
    log.steal.push_back({seconds(SteadyClock::now() - start), stealTicks()});
    LoadRun run;
    run.peak_rss_mb = peakRssMb();
    run.samples.push_back(log.takeSamples());
    run.records = std::move(log.records);
    run.tally = log.tally;
    run.spans = log.spans.spans();
    run.steal = std::move(log.steal);
    std::stable_sort(run.records.begin(), run.records.end(),
                     [](const Record &a, const Record &b) {
                         return a.submit_at_s < b.submit_at_s;
                     });
    return run;
}

/** Spin-wait hint: the load thread polls, it never sleeps. */
inline void
relax()
{
    __builtin_ia32_pause();
}

bool
ready(std::future<svc::Reply> &f)
{
    return f.wait_for(0s) == std::future_status::ready;
}

LoadRun
runClosed(svc::Service &service, const Workload &w, std::uint64_t seed,
          const LoadSpec &spec, const ReplyCheck &check)
{
    struct Client {
        Record rec;
        SteadyClock::time_point sent;
        std::future<svc::Reply> future;
        std::uint64_t next = 0; ///< index of the client's next job
    };

    LoadLog log(w, spec);
    std::vector<Client> clients(w.clients);
    const auto start = SteadyClock::now();
    const auto end = start + toDuration(spec.warmup_s + spec.window_s);

    // Client c's next job, unless the load has ended.
    const auto send = [&](std::uint32_t c) {
        Client &cl = clients[c];
        Record r;
        r.index = cl.next++;
        r.seed = w.seeded ? jobSeed(seed, c + 1, r.index) : 0;
        const svc::Job job = makeJob(w, r.seed);
        r.queue_depth = service.queueDepth();
        cl.sent = SteadyClock::now();
        if (cl.sent >= end)
            return false;
        cl.future = service.submit(job);
        r.submit_us = micros(SteadyClock::now() - cl.sent);
        r.submit_at_s = seconds(cl.sent - start);
        r.in_window = spec.inWindow(r.submit_at_s);
        r.traced = spec.traced(r.submit_at_s);
        cl.rec = r;
        return true;
    };

    std::size_t active = 0;
    for (std::uint32_t c = 0; c < w.clients; ++c)
        active += send(c);
    while (active > 0) {
        Client *oldest = nullptr;
        bool replied = false;
        for (std::uint32_t c = 0; c < w.clients; ++c) {
            Client &cl = clients[c];
            if (!cl.future.valid())
                continue;
            if (!ready(cl.future)) {
                if (oldest == nullptr || cl.sent < oldest->sent)
                    oldest = &cl;
                continue;
            }
            replied = true;
            const auto now = SteadyClock::now();
            svc::Reply reply = cl.future.get();
            Record &r = cl.rec;
            if (r.traced)
                log.spans.add(Span{log.spans.newId(), 0, "service.request",
                                   cl.sent, now});
            r.latency_us = micros(now - cl.sent);
            bool keep = false;
            fillFromReply(r, reply, check, keep);
            log.add(r, keep);
            if (!send(c))
                --active;
        }
        log.probeSteal(start, SteadyClock::now());
        if (replied || oldest == nullptr)
            continue;
        if (w.idle_wait_us > 0)
            oldest->future.wait_for(
                std::chrono::microseconds(w.idle_wait_us));
        else
            relax();
    }
    return finish(log, start);
}

LoadRun
runOpen(svc::Service &service, const Workload &w, std::uint64_t seed,
        const LoadSpec &spec, const ReplyCheck &check)
{
    struct InFlight {
        Record rec;
        SteadyClock::time_point due;
        SteadyClock::time_point sent;
        std::future<svc::Reply> future;
    };

    LoadLog log(w, spec);
    std::vector<InFlight> pending;
    lsdgnn::Rng arrivals(jobSeed(seed, 0, ~0ull));
    const auto nextGap = [&] {
        return toDuration(-std::log(1.0 - arrivals.nextDouble()) /
                          w.rate_qps);
    };
    const auto start = SteadyClock::now();
    const auto end = start + toDuration(spec.warmup_s + spec.window_s);
    auto due = start + nextGap();
    std::uint64_t i = 0;
    // One thread sends on schedule and collects replies in between, so
    // neither waits for a wake-up: a send is late only by the sweep it
    // interrupted, or by the host taking the CPU away.
    while (due < end || !pending.empty()) {
        if (due < end && SteadyClock::now() >= due) {
            InFlight f;
            f.due = due;
            f.rec.index = i;
            f.rec.seed = w.seeded ? jobSeed(seed, 0, i) : 0;
            f.rec.submit_at_s = seconds(due - start);
            f.rec.in_window = spec.inWindow(f.rec.submit_at_s);
            f.rec.traced = spec.traced(f.rec.submit_at_s);
            const svc::Job job = makeJob(w, f.rec.seed);
            f.rec.queue_depth = service.queueDepth();
            f.sent = SteadyClock::now();
            f.future = service.submit(job);
            f.rec.submit_us = micros(SteadyClock::now() - f.sent);
            f.rec.gen_lag_us = micros(f.sent - due);
            pending.push_back(std::move(f));
            ++i;
            due += nextGap();
            continue;
        }
        log.probeSteal(start, SteadyClock::now());
        std::erase_if(pending, [&](InFlight &f) {
            if (!ready(f.future))
                return false;
            const auto now = SteadyClock::now();
            svc::Reply reply = f.future.get();
            Record &r = f.rec;
            if (r.traced)
                log.spans.add(Span{log.spans.newId(), 0, "service.request",
                                   f.sent, now});
            r.latency_us = micros(now - f.due);
            bool keep = false;
            fillFromReply(r, reply, check, keep);
            log.add(r, keep);
            return true;
        });
        relax();
    }
    return finish(log, start);
}

} // namespace

bool
LoadSpec::traced(double at_s) const
{
    if (trace_slice_s <= 0.0 || !inWindow(at_s))
        return false;
    return static_cast<std::int64_t>((at_s - warmup_s) / trace_slice_s) %
               2 ==
           1;
}

LoadRun
runLoad(svc::Service &service, const Workload &w,
        std::uint64_t workload_seed, const LoadSpec &spec,
        const ReplyCheck &check)
{
    return w.loop == Loop::Closed
               ? runClosed(service, w, workload_seed, spec, check)
               : runOpen(service, w, workload_seed, spec, check);
}

} // namespace perfbench
