/**
 * @file
 * Bounded MPMC admission queue with priority lanes and load shedding.
 *
 * The queue is the service's admission-control point: producers (any
 * number of client threads) push requests, consumers (the worker
 * pool) pop them. It holds two priority lanes — Interactive (online
 * inference) and Batch (training plans) — and dequeues between them
 * with weighted fairness, so a saturating Batch workload cannot
 * starve Interactive traffic; within a lane, requests are served
 * earliest-deadline-first (EDF; requests without a deadline
 * tie-break FIFO by admission id).
 *
 * Capacity policy: the queue holds at most `capacity` requests in
 * total. The Interactive lane may use the whole budget, while the
 * Batch lane is additionally bounded to its weighted share of
 * capacity — a batch flood therefore saturates its own lane and
 * leaves admission room for interactive traffic. When a TenantRegistry
 * is bound, each registered tenant is further held to its weighted
 * share of the Batch lane, so batch tenants cannot crowd each other
 * out either.
 *
 * Shedding policies keep latency bounded under overload:
 *
 *  - *Reject at the door*: push() fails the request immediately with
 *    StatusCode::Rejected / ShedCause::QueueFull when the total (or
 *    the lane's) budget is exhausted, or the queue is closed.
 *  - *Drop inside*: every pop scan discards requests whose deadline
 *    has already passed, completing them with
 *    StatusCode::DeadlineExceeded / ShedCause::DeadlineDrop — no
 *    worker wastes backend time on an answer nobody is waiting for.
 *
 * A starvation watchdog trips the flight recorder when a non-empty
 * lane goes unserved past a threshold (a weighted-fair bug, or a
 * worker wedge). All requests are stamped with their admission and
 * pop times so the worker pool can attribute queue wait, batch
 * forming and execution (stamps.hh).
 *
 * Work conservation: the queue counts the consumers blocked in pop()
 * on an empty queue. A batch that is aging for riders in
 * waitForArrival() (only a batcher with a positive window ages) stops
 * waiting as soon as that count is above zero — including when a peer
 * goes idle partway through the wait — so a batch ages only while
 * every other worker is busy.
 */

#ifndef LSDGNN_SERVICE_REQUEST_QUEUE_HH
#define LSDGNN_SERVICE_REQUEST_QUEUE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/stats.hh"
#include "service/request.hh"
#include "service/stamps.hh"

namespace lsdgnn {
namespace service {

struct QosRuntime;

/** Admission-queue tuning knobs. */
struct RequestQueueConfig {
    /** Requests held (total, both lanes) before push() rejects. */
    std::size_t capacity = 256;
    /**
     * Shed-rate spike trigger for the flight recorder: this many
     * sheds (reject + drop) within one window trips an anomaly dump.
     * 0 disables the trigger.
     */
    std::size_t shed_spike_threshold = 64;
    /** Width of the shed-spike counting window. */
    std::chrono::milliseconds shed_spike_window{100};
    /** Weighted-fair dequeue shares (see Lane). */
    std::uint32_t interactive_weight = 3;
    std::uint32_t batch_weight = 1;
    /**
     * Starvation watchdog: a non-empty lane unserved this long trips
     * the flight recorder. 0 disables.
     */
    std::chrono::milliseconds starvation_threshold{100};
};

/**
 * Bounded multi-producer/multi-consumer queue of Requests.
 *
 * Thread-safe throughout; all completion of shed requests (rejected,
 * dropped, cancelled) happens inside the queue so admission policy
 * lives in exactly one place.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(RequestQueueConfig config);
    ~RequestQueue();

    /**
     * Bind the QoS runtime: per-tenant shed accounting and the
     * per-tenant Batch-lane share caps. Call before the first push
     * (the service does, at construction). May be null (tests).
     */
    void bindQos(QosRuntime *qos) { qos_ = qos; }

    /**
     * Admit one request into its lane. On success the request is
     * stamped and true is returned; when the lane (or queue) is full
     * or closed the request's promise is completed with Rejected /
     * ShedCause::QueueFull and false is returned.
     */
    bool push(Request &&req);

    /**
     * Blocking pop: waits until a live (non-expired) request is
     * available or the queue is closed and drained. The lane is
     * chosen weighted-fair, the request within it earliest-deadline-
     * first. Expired requests encountered on the way are dropped.
     * Returns std::nullopt only on closed-and-empty.
     */
    std::optional<Request> pop();

    /**
     * Non-blocking pop of the earliest-deadline queued request (FIFO
     * among no-deadline requests) in @p proto's lane that is
     * batch-compatible with @p proto (plan shape AND routing AND
     * lane) and whose batch_size fits within @p root_budget.
     * Candidates whose deadline falls before @p batch_dropdead are
     * left queued — merging them would straddle the forming batch's
     * drop-dead point (they need to run *sooner* than the batch they
     * would join). Expired requests are dropped during the scan.
     */
    std::optional<Request>
    popCompatible(const Request &proto, std::uint64_t root_budget,
                  Clock::time_point batch_dropdead =
                      Clock::time_point::max());

    /**
     * Complete @p req as shed through the queue's single accounting
     * point (stats, spike window, flight events, per-tenant
     * counters). Used by the batcher for deadline drops discovered at
     * batch close.
     */
    void shed(Request &&req, Status status, ShedCause cause);

    /**
     * Block until the arrival counter exceeds @p seen_arrivals, the
     * queue closes, @p until passes, or another consumer is idle in
     * pop() (at the call or partway through the wait). Returns true
     * when a new arrival happened (the caller should rescan), false
     * on timeout, close or an idle consumer. Used by the batcher's
     * aging window: a batch never waits for company while a worker
     * that could run it sits idle.
     */
    bool waitForArrival(std::uint64_t seen_arrivals,
                        Clock::time_point until);

    /** Stop admitting; queued requests stay poppable (drain). */
    void close();

    /**
     * Complete every queued request with StatusCode::Cancelled and
     * empty out.
     */
    void cancelPending();

    bool closed() const;
    std::size_t depth() const;

    /** Total configured capacity (both lanes). */
    std::size_t capacity() const { return config_.capacity; }

    /** Requests queued in one lane. */
    std::size_t laneDepth(Lane lane) const;

    /** The Batch lane's capacity (its weighted share of capacity). */
    std::size_t batchLaneCapacity() const { return batchCap_; }

    /** Requests ever admitted (the batcher's rescan cursor). */
    std::uint64_t arrivals() const;

    /** Consumers currently blocked in pop() on an empty queue. */
    std::uint32_t idlePoppers() const;

    /** "service.queue" statistics (accepted/rejected/dropped/...). */
    const stats::StatGroup &stats() const { return group; }

    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

  private:
    /** Complete @p req as shed with @p status (lock held by caller). */
    void shedLocked(Request &&req, Status status, ShedCause cause,
                    Clock::time_point now);
    /** Drop every expired request in @p lane (lock held). */
    void sweepExpiredLocked(std::size_t lane, Clock::time_point now);
    /** Weighted-fair lane choice; -1 when both lanes are empty. */
    int pickLaneLocked();
    /** Starvation watchdog after serving @p lane (lock held). */
    void checkStarvationLocked(std::size_t lane,
                               Clock::time_point now);
    /** Un-count a Batch-lane request's tenant occupancy (lock held). */
    void releaseTenantSlotLocked(const Request &req);
    void traceDepthLocked(Clock::time_point now);
    /** Count one shed toward the spike window (lock held). */
    void countShedLocked(Clock::time_point now);
    /**
     * Fire deferred flight trips (shed spike, lane starvation), if
     * pending. Must be called WITHOUT mutex_ held: the dump samples
     * the queue-depth gauge, which takes the lock.
     */
    void maybeTrip();

    RequestQueueConfig config_;
    QosRuntime *qos_ = nullptr;
    /** Batch lane's occupancy bound (weighted share of capacity). */
    std::size_t batchCap_ = 0;

    mutable TimedMutex mutex_{LockSite::Queue};
    /** pop() waiters: a push wakes one. */
    std::condition_variable cv_;
    /** waitForArrival() waiters: a push or an idle popper wakes all. */
    std::condition_variable arrivalCv_;
    /** Consumers blocked in pop() (work conservation, see above). */
    std::uint32_t idlePoppers_ = 0;
    std::deque<Request> lanes_[lane_count];
    /** Queued Batch-lane requests per tenant (share enforcement). */
    std::unordered_map<TenantId, std::size_t> batchTenantDepth_;
    /** Weighted-round-robin credits of the current dequeue cycle. */
    std::uint32_t credit_[lane_count] = {0, 0};
    /** Last time each lane was served (starvation watchdog). */
    Clock::time_point lastServed_[lane_count] = {};
    bool closed_ = false;
    std::uint64_t arrivals_ = 0;
    std::uint64_t next_id = 1;

    Clock::time_point shedWindowStart_{};
    std::size_t shedWindowCount_ = 0;
    std::atomic<bool> tripPending_{false};
    std::atomic<int> starvedLane_{-1};
    std::uint64_t flightGauge_ = 0;

    stats::Counter accepted_, rejected_, dropped_, cancelled_;
    stats::Counter starvationTrips_;
    stats::Average depthAtAdmit;
    stats::StatGroup group{"service.queue"}; ///< after its stats
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_REQUEST_QUEUE_HH
