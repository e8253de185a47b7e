/**
 * @file
 * The benchmark's own load drivers over Service::submit.
 *
 * Both loops run on one load thread that polls its outstanding
 * futures and never sleeps, so no reply waits for the load side to be
 * woken (on a shared VM a wake-up can take milliseconds, and the
 * closed loop's goodput then tracked the host's wake-up latency, not
 * the service).
 *
 * Closed loop: K clients, each submitting its next job only after the
 * previous reply arrived; latency runs from the submit call to the
 * reply. Open loop: sends on a seeded Poisson schedule, never waiting
 * for replies, and collects completions between sends. Open-loop
 * latency runs from each request's *due* time, so a generator or
 * service stall is charged to every request it delays, and the
 * generator's own lateness is recorded per request (gen_lag_us).
 *
 * Both drivers run one continuous load: a warm-up slice first, then
 * the measured window. A request belongs to the window when it was
 * submitted (closed) or due (open) inside it.
 *
 * The load side keeps its own memory small and independent of the
 * request count, so the process's peak RSS is the service's: every
 * request leaves an 8-byte Sample in a buffer sized up front, and only
 * every record_stride-th request of a stream keeps a full Record.
 *
 * The load thread also reads the host's steal counter as it goes, so
 * the window's slices can be ranked by how much CPU the host took.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <functional>
#include <vector>

#include "service/service.hh"
#include "spans.hh"
#include "workload.hh"

namespace perfbench {

/** Latency of one request; latency_us < 0 marks a failed request. */
struct Sample {
    float at_s = 0.0f;        ///< since load start: submit (closed) / due (open)
    float latency_us = -1.0f; ///< submit (closed) / due (open) -> reply
};

/**
 * The host's steal counter (/proc/stat: time this VM's CPUs were
 * ready to run but the host ran something else), read every 100 ms
 * during the load.
 */
struct StealProbe {
    double at_s = 0.0;      ///< since load start
    std::uint64_t ticks = 0; ///< cumulative, all CPUs, USER_HZ ticks
};

/** A request as the load side saw it, kept for every stride-th one. */
struct Record {
    std::uint64_t index = 0;   ///< request number within its stream
    std::uint64_t seed = 0;
    double submit_at_s = 0.0;  ///< since load start: submit (closed) / due (open)
    double latency_us = 0.0;
    double submit_us = 0.0;    ///< the Service::submit call itself
    double gen_lag_us = 0.0;   ///< open loop: send time - due time
    std::size_t queue_depth = 0; ///< Service::queueDepth() before submit
    std::uint32_t batched_with = 0;
    std::uint32_t worker = 0;
    std::uint64_t digest = 0;
    bool payload = false;
    bool valid = false;
    bool in_window = false;
    bool traced = false;
};

/** What the output check made of one reply. */
struct Verdict {
    bool payload = false; ///< the reply carried a usable payload
    bool valid = false;   ///< ... and it passed the structural check
    std::uint64_t digest = 0;
    /** Keep this request's Record even off the stride. */
    bool keep = false;
};

/** Checks one reply of request @p r on the thread that received it. */
using ReplyCheck = std::function<Verdict(svc::Reply &reply, const Record &r)>;

struct LoadSpec {
    double warmup_s = 1.0;
    double window_s = 10.0;
    /**
     * When > 0, the window alternates untraced and traced slices of
     * this length; requests in traced slices get a service.request
     * span (submit -> reply). 0 records no spans.
     */
    double trace_slice_s = 0.0;

    /** Whether a request submitted (due) at @p at_s is in the window. */
    bool inWindow(double at_s) const { return at_s >= warmup_s; }

    /** Whether a request at @p at_s falls in a traced slice. */
    bool traced(double at_s) const;
};

/** Counts over the window's requests. */
struct Tally {
    std::uint64_t attempted = 0; ///< requests in the window
    std::uint64_t failed = 0;    ///< of those, no payload or failed check
    std::uint64_t invalid = 0;   ///< payloads that failed the check, any time
};

struct LoadRun {
    /** One Sample per request. */
    std::vector<std::vector<Sample>> samples;
    /** Stride-sampled Records, ordered by submit_at_s. */
    std::vector<Record> records;
    Tally tally;
    /** service.request spans of the traced slices. */
    std::vector<Span> spans;
    /** Steal readings from load start to end, in time order. */
    std::vector<StealProbe> steal;
    /** Peak resident memory of the process when the load ended, MiB. */
    double peak_rss_mb = 0.0;
};

/** Drive @p service with workload @p w's traffic per @p spec. */
LoadRun runLoad(svc::Service &service, const Workload &w,
                std::uint64_t workload_seed, const LoadSpec &spec,
                const ReplyCheck &check);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH
