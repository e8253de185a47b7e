/**
 * @file
 * Request/reply vocabulary of the service layer.
 *
 * The service layer runs in *wall-clock* time on real threads, unlike
 * the simulated components underneath it: a client submits one Job
 * (see job.hh) and receives a std::future<Reply> that completes when
 * a worker has executed the (possibly micro-batched) plan — and, for
 * compute kinds, gathered attributes and run the GNN forward pass —
 * or earlier when admission control rejects or the deadline policy
 * drops the request.
 *
 * Status model: replies carry lsdgnn::Status, the repo-wide result
 * vocabulary. Ok and Degraded both deliver a usable payload
 * (Status::hasPayload()); Rejected / DeadlineExceeded / Cancelled /
 * InvalidArgument are the shed outcomes.
 */

#ifndef LSDGNN_SERVICE_REQUEST_HH
#define LSDGNN_SERVICE_REQUEST_HH

#include <chrono>
#include <cstdint>
#include <future>

#include "common/status.hh"
#include "common/trace.hh"
#include "common/units.hh"
#include "gnn/tensor.hh"
#include "sampling/minibatch.hh"

namespace lsdgnn {
namespace service {

/** Wall-clock timebase of the service layer. */
using Clock = std::chrono::steady_clock;

/** Trace "pid" the service layer's tracks live under. */
inline constexpr std::uint32_t trace_pid = trace::wall_pid;

/** Tenant identity of a submission. 0 is the default tenant. */
using TenantId = std::uint32_t;

/**
 * Priority lane of a request. The two lanes map onto the two request
 * classes the paper's FaaS frontier mixes: latency-critical online
 * inference (GraphAGILE's regime) and throughput-oriented batch
 * training plans (HP-GNN's regime). The queue dequeues between them
 * with weighted fairness, so a saturating Batch workload cannot
 * starve Interactive traffic.
 */
enum class Lane : std::uint8_t {
    /** Online inference: low latency, weighted-preferred dequeue. */
    Interactive = 0,
    /** Batch training: throughput-oriented, bounded queue share. */
    Batch = 1,
};

/** Number of priority lanes (array sizing). */
inline constexpr std::size_t lane_count = 2;

/** Stable lane name for stats/JSON. */
constexpr const char *
toString(Lane lane)
{
    return lane == Lane::Interactive ? "interactive" : "batch";
}

/**
 * Why a request was shed (or brown-out-degraded). The Status code
 * alone conflates causes — Rejected covers both a token-bucket deny
 * and a full queue — so replies carry the precise cause and load
 * reports can break sheds out per tenant and per cause.
 */
enum class ShedCause : std::uint8_t {
    None = 0,         ///< not shed
    AdmissionThrottle, ///< per-tenant token bucket denied admission
    QueueFull,        ///< admission queue (lane) at capacity or closed
    BrownOut,         ///< shed by brown-out policy under pressure
    DeadlineDrop,     ///< deadline expired in queue or at batch close
};

/** Stable cause name for stats/JSON. */
constexpr std::string_view
toString(ShedCause cause)
{
    switch (cause) {
      case ShedCause::None: return "none";
      case ShedCause::AdmissionThrottle: return "admission-throttle";
      case ShedCause::QueueFull: return "queue-full";
      case ShedCause::BrownOut: return "brown-out";
      case ShedCause::DeadlineDrop: return "deadline-drop";
    }
    return "?";
}

/**
 * Kind of work a Job (job.hh) asks for. Lives here (not job.hh) so
 * the internal Request/Reply records and the compatibility rules can
 * name it without a circular include.
 */
enum class JobKind : std::uint8_t {
    Sample = 0,    ///< sampled subgraph only
    Embed = 1,     ///< sample -> gather -> GraphSAGE forward
    TrainStep = 2, ///< Embed + in-batch link-prediction loss
};

/** Stable kind name for stats/JSON. */
constexpr std::string_view
toString(JobKind kind)
{
    switch (kind) {
      case JobKind::Sample: return "sample";
      case JobKind::Embed: return "embed";
      case JobKind::TrainStep: return "train-step";
    }
    return "?";
}

/** Whether the kind runs the gather + GNN compute stages. */
constexpr bool
needsCompute(JobKind kind)
{
    return kind != JobKind::Sample;
}

/** Where a request's roots may be drawn from. */
enum class Routing : std::uint8_t {
    /** Any worker, roots drawn from the whole graph (default). */
    Any,
    /**
     * Roots drawn from the executing worker's own shard. Cuts the
     * remote fraction of hop 1 on the Distributed backend; identical
     * to Any on the single-store backends.
     */
    LocalRoots,
};

/** Per-submission options (everything beyond the plan itself). */
struct SubmitOptions {
    /** Drop-dead interval from submission; zero = no deadline. */
    std::chrono::microseconds deadline{0};
    /** Root-placement policy. */
    Routing routing = Routing::Any;
    /**
     * Tenant this submission bills against. Admission (token bucket,
     * queue share) and per-tenant stats key off this id; unregistered
     * ids are admitted under the registry's default policy.
     */
    TenantId tenant = 0;
    /** Priority lane; see Lane. */
    Lane lane = Lane::Interactive;
    /**
     * Trace id echoed in the Reply and propagated through every stage
     * the request crosses (queue, micro-batch, backend hop, fabric
     * round).
     *
     * Id scheme: 0 (the default) asks the service to allocate a fresh
     * id, so every request is traceable — the Reply carries the id
     * actually used. Auto-generated ids come from a process-wide
     * counter starting at 2^32 (trace::TraceContext::nextTraceId), so
     * they can never collide with client-chosen ids, which should be
     * small (< 2^32) nonzero values.
     */
    std::uint64_t trace_id = 0;
    /**
     * Job-local sampling seed. 0 (the default) draws from the
     * executing worker's session stream — maximum throughput, but the
     * result depends on which worker served the job and what it
     * served before. A nonzero seed pins the job's entire root and
     * neighbor draw to a private RNG stream, making the reply
     * byte-identical regardless of worker count, batching, pipeline
     * mode or scheduling — the golden-replay/A/B hook. Seeded jobs
     * are never merged into a shared micro-batch (batchCompatible),
     * so the seed fully determines the execution.
     */
    std::uint64_t seed = 0;
};

/**
 * One request's time, split into the named stages it crosses, in
 * order. For Reply::stages each is the wall-clock interval between two
 * of the request's stamps:
 *
 *  - queue:   enqueue -> popped off the admission queue
 *  - batch:   popped -> batch close (the aging window, if any)
 *  - handoff: batch close -> sampling start (plan merge, brown-out
 *             check and, for compute kinds, waiting for a free
 *             payload buffer), plus gather end -> compute start (the
 *             mailbox to the compute thread)
 *  - sample:  backend sampling of the merged plan
 *  - gather:  attribute-row gather (compute kinds)
 *  - compute: GraphSAGE forward (compute kinds)
 *  - reply:   end of the last stage -> this rider's reply (splitting
 *             the merged result, and completing the riders ahead of
 *             it)
 *
 * The intervals are contiguous, so their total() is submit-to-reply.
 */
struct StageTimes {
    double queue_us = 0.0;
    double batch_us = 0.0;
    double handoff_us = 0.0;
    double sample_us = 0.0;
    double gather_us = 0.0;
    double compute_us = 0.0;
    double reply_us = 0.0;

    double
    total() const
    {
        return queue_us + batch_us + handoff_us + sample_us +
               gather_us + compute_us + reply_us;
    }
};

/** What the client's future resolves to. */
struct Reply {
    /** Terminal outcome; see hasBatch() for payload validity. */
    Status status = StatusCode::Ok;
    /** Kind of job this reply answers. */
    JobKind kind = JobKind::Sample;
    /**
     * The sampled mini-batch; meaningful iff hasBatch(). Compute
     * kinds do not return the subgraph (their payload is the
     * embeddings) — splitting the merged frontier per rider is pure
     * overhead when the client only wants the dense output.
     */
    sampling::SampleResult batch;
    /**
     * One embedding row per requested root; meaningful iff
     * hasEmbeddings(). Under brown-out width degradation the rows are
     * narrower than the configured hidden width (a prefix of the
     * embedding space — usable, flagged Status::Degraded).
     */
    gnn::Matrix embeddings;
    /** TrainStep only: in-batch link-prediction loss of this rider. */
    double loss = 0.0;
    /** Compute kinds: FLOPs the forward pass executed (batch-wide). */
    std::uint64_t flops = 0;
    /** Compute kinds: modeled GEMM-engine cycles (batch-wide). */
    std::uint64_t gemm_cycles = 0;
    /** Worker that executed the request (executed replies only). */
    std::uint32_t worker = 0;
    /** Requests coalesced into the micro-batch this rode in. */
    std::uint32_t batched_with = 1;
    /**
     * Trace id the request ran under: the client-chosen
     * SubmitOptions::trace_id, or the service-allocated one when the
     * client passed 0.
     */
    std::uint64_t trace_id = 0;
    /** Root span of this request within its trace (0 = shed early). */
    std::uint64_t span_id = 0;
    /**
     * Span of the micro-batch execution that served this request; 0
     * for shed requests. Riders of one batch share this value.
     */
    std::uint64_t batch_span_id = 0;
    /**
     * Where this request's time went: seven contiguous wall-clock
     * stages between its stamps (see StageTimes), summing to e2e_us.
     */
    StageTimes stages;
    /**
     * Thread CPU time the serving threads spent in each stage. The
     * queue stage has none; batch to compute are shared by the
     * riders of one micro-batch; reply is this rider's own.
     */
    StageTimes cpu;
    /** Submit -> reply (the sum of stages). */
    double e2e_us = 0.0;
    /**
     * Time this request's path spent blocked on the RequestQueue's
     * and the ServiceStats' mutexes: its own admission, plus what the
     * serving threads waited on them for its batch up to its reply.
     * These are parts of the stages above, not extra stages.
     */
    double queue_lock_us = 0.0;
    double stats_lock_us = 0.0;
    /** Tenant the request billed against (echo of SubmitOptions). */
    TenantId tenant = 0;
    /** Lane the request rode (echo of SubmitOptions). */
    Lane lane = Lane::Interactive;
    /**
     * Precise shed/degradation cause: ShedCause::None for clean
     * executions, BrownOut for replies that still carry a payload but
     * were served at reduced fan-out (status Degraded), and the shed
     * causes for Rejected/DeadlineExceeded outcomes.
     */
    ShedCause shed_cause = ShedCause::None;

    /** Whether batch holds a usable sample (Sample kind only). */
    bool hasBatch() const
    {
        return kind == JobKind::Sample && status.hasPayload();
    }

    /** Whether embeddings hold usable rows (compute kinds). */
    bool hasEmbeddings() const
    {
        return needsCompute(kind) && status.hasPayload();
    }
};

/** One queued request. Moves through the RequestQueue. */
struct Request {
    JobKind kind = JobKind::Sample;
    sampling::SamplePlan plan;
    /** Job-local sampling seed; see SubmitOptions::seed. */
    std::uint64_t seed = 0;
    Routing routing = Routing::Any;
    TenantId tenant = 0;
    Lane lane = Lane::Interactive;
    std::uint64_t trace_id = 0;
    /** Root span context (trace_id + root span), set by submit(). */
    trace::TraceContext trace;
    /** Stamped by the queue on admission. */
    Clock::time_point enqueued_at{};
    /** Stamped by the queue when a worker takes the request. */
    Clock::time_point popped_at{};
    /** Time push() blocked on the queue's mutex, nanoseconds. */
    std::uint64_t admit_lock_ns = 0;
    /** Drop-dead time; time_point::max() means no deadline. */
    Clock::time_point deadline = Clock::time_point::max();
    std::uint64_t id = 0;
    std::promise<Reply> promise;
};

/** Microseconds between two service-clock points. */
inline double
elapsedUs(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/**
 * Whether two plans may share one backend execution: identical
 * per-hop fanouts and attribute-fetch flag. Batch sizes may differ —
 * the batcher sums them and splits the merged result on root ranges.
 */
inline bool
batchCompatible(const sampling::SamplePlan &a,
                const sampling::SamplePlan &b)
{
    return a.fanouts == b.fanouts &&
           a.fetch_attributes == b.fetch_attributes;
}

/**
 * Request-level compatibility: job kind (a merged execution is
 * stage-homogeneous — Sample riders never pay a compute stage and
 * compute riders split on root ranges), plan shape, routing — a
 * LocalRoots rider must not be executed under an Any batch (and vice
 * versa), since the merged plan draws all roots one way — and lane: a
 * Batch rider must not ride (and thereby extend) an Interactive
 * execution, so micro-batches stay lane-pure and priority accounting
 * stays honest. Tenants may mix freely within a lane. Seeded requests
 * (SubmitOptions::seed != 0) always execute solo: their draw must not
 * depend on who else happened to be queued.
 */
inline bool
batchCompatible(const Request &a, const Request &b)
{
    return a.kind == b.kind && a.seed == 0 && b.seed == 0 &&
           a.routing == b.routing && a.lane == b.lane &&
           batchCompatible(a.plan, b.plan);
}

/**
 * Map a wall-clock instant onto the tracer's picosecond Tick axis,
 * relative to the first call in the process, so service spans land on
 * a sane time origin in Perfetto next to the simulated tracks.
 * Forwards to trace::wallTick so every wall-clock emitter in the
 * process (service, backend hops, fabric rounds) shares one epoch.
 */
inline Tick
wallTick(Clock::time_point tp)
{
    return trace::wallTick(tp);
}

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_REQUEST_HH
