#include "request_queue.hh"

#include <algorithm>

#include "common/flight_recorder.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "service/qos.hh"

namespace lsdgnn {
namespace service {

namespace {

/**
 * EDF ordering: earliest deadline first, admission id breaking ties.
 * No-deadline requests carry time_point::max(), so a lane of
 * deadline-free requests degenerates to FIFO.
 */
bool
edfBefore(const Request &a, const Request &b)
{
    if (a.deadline != b.deadline)
        return a.deadline < b.deadline;
    return a.id < b.id;
}

} // namespace

RequestQueue::RequestQueue(RequestQueueConfig config)
    : config_(config)
{
    lsd_assert(config_.capacity > 0, "queue needs capacity");
    const std::uint64_t iw = config_.interactive_weight;
    const std::uint64_t bw = config_.batch_weight;
    const std::uint64_t total = std::max<std::uint64_t>(iw + bw, 1);
    batchCap_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(config_.capacity * bw / total));
    credit_[0] = config_.interactive_weight;
    credit_[1] = config_.batch_weight;
    group.addCounter("accepted", &accepted_, "requests admitted");
    group.addCounter("rejected", &rejected_,
                     "requests shed at admission (queue full/closed)");
    group.addCounter("dropped", &dropped_,
                     "requests shed in-queue (deadline expired)");
    group.addCounter("cancelled", &cancelled_,
                     "requests failed by non-drain shutdown");
    group.addCounter("starvation_trips", &starvationTrips_,
                     "lane-starvation watchdog firings");
    group.addAverage("depth_at_admit", &depthAtAdmit,
                     "queue depth seen by each admitted request");
    group.addCounter("lock_contended", &mutex_.contended(),
                     "queue-mutex acquisitions that blocked");
    group.addCounter("lock_wait_ns", &mutex_.waitNs(),
                     "time blocked acquiring the queue mutex (ns)");
    flightGauge_ = trace::FlightRecorder::instance().registerGauge(
        "service.queue.depth", [this] {
            return static_cast<double>(depth());
        });
}

RequestQueue::~RequestQueue()
{
    trace::FlightRecorder::instance().unregisterGauge(flightGauge_);
}

void
RequestQueue::traceDepthLocked(Clock::time_point now)
{
    if (trace::Tracer::enabled())
        trace::Tracer::instance().counter(
            trace_pid, "service.queue.depth", wallTick(now),
            static_cast<double>(lanes_[0].size() + lanes_[1].size()));
}

void
RequestQueue::countShedLocked(Clock::time_point now)
{
    if (config_.shed_spike_threshold == 0)
        return;
    if (now - shedWindowStart_ > config_.shed_spike_window) {
        shedWindowStart_ = now;
        shedWindowCount_ = 0;
    }
    if (++shedWindowCount_ == config_.shed_spike_threshold)
        tripPending_.store(true, std::memory_order_relaxed);
}

void
RequestQueue::maybeTrip()
{
    if (tripPending_.exchange(false, std::memory_order_relaxed))
        trace::FlightRecorder::instance().trip(
            "shed-spike:service.queue");
    const int lane =
        starvedLane_.exchange(-1, std::memory_order_relaxed);
    if (lane >= 0)
        trace::FlightRecorder::instance().trip(
            lane == static_cast<int>(Lane::Batch)
                ? "lane-starvation:batch"
                : "lane-starvation:interactive");
}

void
RequestQueue::releaseTenantSlotLocked(const Request &req)
{
    if (req.lane != Lane::Batch)
        return;
    auto it = batchTenantDepth_.find(req.tenant);
    if (it != batchTenantDepth_.end() && --it->second == 0)
        batchTenantDepth_.erase(it);
}

void
RequestQueue::shedLocked(Request &&req, Status status, ShedCause cause,
                         Clock::time_point now)
{
    if (status == StatusCode::DeadlineExceeded)
        dropped_.inc();
    else if (status == StatusCode::Cancelled)
        cancelled_.inc();
    else if (status == StatusCode::Rejected)
        rejected_.inc();
    countShedLocked(now);
    if (qos_ && cause != ShedCause::None)
        qos_->registry.recordShed(req.tenant, cause);
    trace::FlightRecorder::instance().recordNow(
        "queue.shed", req.trace.trace_id, req.trace.span_id,
        static_cast<double>(static_cast<int>(status.code())),
        static_cast<double>(static_cast<int>(cause)));
    // Shed requests never reach a worker, so their queue-wait slice is
    // emitted here — the trace still shows where the request died.
    if (trace::Tracer::enabled()) {
        auto &tracer = trace::Tracer::instance();
        const std::string args = req.trace.argsJson() +
                                 ",\"status\":\"" +
                                 std::string(toString(status.code())) +
                                 "\",\"cause\":\"" +
                                 std::string(toString(cause)) + "\"";
        tracer.complete(trace_pid,
                        tracer.track(trace_pid, "service.queue"),
                        "queue.shed", wallTick(req.enqueued_at),
                        wallTick(now) - wallTick(req.enqueued_at),
                        args);
    }
    Reply reply;
    reply.status = std::move(status);
    reply.trace_id = req.trace_id;
    reply.span_id = req.trace.span_id;
    reply.tenant = req.tenant;
    reply.lane = req.lane;
    reply.shed_cause = cause;
    reply.stages.queue_us = elapsedUs(req.enqueued_at, now);
    reply.e2e_us = reply.stages.queue_us;
    req.promise.set_value(std::move(reply));
}

void
RequestQueue::sweepExpiredLocked(std::size_t lane,
                                 Clock::time_point now)
{
    auto &dq = lanes_[lane];
    for (auto it = dq.begin(); it != dq.end();) {
        if (it->deadline > now) {
            ++it;
            continue;
        }
        Request expired = std::move(*it);
        it = dq.erase(it);
        releaseTenantSlotLocked(expired);
        shedLocked(std::move(expired),
                   Status(StatusCode::DeadlineExceeded,
                          "expired in queue"),
                   ShedCause::DeadlineDrop, now);
    }
}

int
RequestQueue::pickLaneLocked()
{
    const bool has[lane_count] = {!lanes_[0].empty(),
                                  !lanes_[1].empty()};
    if (!has[0] && !has[1])
        return -1;
    // Weighted round-robin: start a fresh credit cycle when no
    // non-empty lane has credit left, then prefer the Interactive
    // lane. Work-conserving — an empty lane never blocks the other.
    if (!((has[0] && credit_[0] > 0) || (has[1] && credit_[1] > 0))) {
        credit_[0] = config_.interactive_weight;
        credit_[1] = config_.batch_weight;
    }
    int pick;
    if (has[0] && credit_[0] > 0)
        pick = 0;
    else if (has[1] && credit_[1] > 0)
        pick = 1;
    else
        pick = has[0] ? 0 : 1;
    if (credit_[pick] > 0)
        --credit_[pick];
    return pick;
}

void
RequestQueue::checkStarvationLocked(std::size_t lane,
                                    Clock::time_point now)
{
    lastServed_[lane] = now;
    if (config_.starvation_threshold.count() <= 0)
        return;
    const std::size_t other = 1 - lane;
    if (lanes_[other].empty())
        return;
    // Lanes are append-only deques, so the front is the oldest
    // admission. lastServed_ doubles as the watchdog's rate limiter:
    // a starved lane complains at most once per threshold period.
    if (now - lanes_[other].front().enqueued_at >
            config_.starvation_threshold &&
        now - lastServed_[other] >= config_.starvation_threshold) {
        lastServed_[other] = now;
        starvationTrips_.inc();
        starvedLane_.store(static_cast<int>(other),
                           std::memory_order_relaxed);
    }
}

bool
RequestQueue::push(Request &&req)
{
    const auto now = Clock::now();
    const auto lane = static_cast<std::size_t>(req.lane);
    const std::uint64_t waited_before = threadLockWaits().queue_ns;
    auto lock = mutex_.lock();
    req.admit_lock_ns = threadLockWaits().queue_ns - waited_before;
    const std::size_t total = lanes_[0].size() + lanes_[1].size();
    const char *refusal = nullptr;
    if (closed_) {
        refusal = "service shutting down";
    } else if (total >= config_.capacity) {
        refusal = "admission queue full";
    } else if (req.lane == Lane::Batch) {
        if (lanes_[lane].size() >= batchCap_) {
            refusal = "batch lane at capacity";
        } else if (qos_) {
            const auto it = batchTenantDepth_.find(req.tenant);
            const std::size_t held =
                it == batchTenantDepth_.end() ? 0 : it->second;
            if (held >=
                qos_->registry.batchShareCap(req.tenant, batchCap_))
                refusal = "tenant batch share exhausted";
        }
    }
    if (refusal != nullptr) {
        rejected_.inc();
        countShedLocked(now);
        if (qos_)
            qos_->registry.recordShed(req.tenant,
                                      ShedCause::QueueFull);
        const bool was_closed = closed_;
        lock.unlock();
        trace::FlightRecorder::instance().recordNow(
            "queue.reject", req.trace.trace_id, req.trace.span_id,
            was_closed ? 1.0 : 0.0);
        Reply reply;
        reply.status = Status(StatusCode::Rejected, refusal);
        reply.trace_id = req.trace_id;
        reply.span_id = req.trace.span_id;
        reply.tenant = req.tenant;
        reply.lane = req.lane;
        reply.shed_cause = ShedCause::QueueFull;
        req.promise.set_value(std::move(reply));
        maybeTrip();
        return false;
    }
    req.enqueued_at = now;
    req.id = next_id++;
    depthAtAdmit.sample(static_cast<double>(total));
    if (req.lane == Lane::Batch)
        ++batchTenantDepth_[req.tenant];
    lanes_[lane].push_back(std::move(req));
    ++arrivals_;
    accepted_.inc();
    traceDepthLocked(now);
    lock.unlock();
    cv_.notify_one();
    arrivalCv_.notify_all();
    return true;
}

std::optional<Request>
RequestQueue::pop()
{
    auto lock = mutex_.lock();
    while (true) {
        const auto now = Clock::now();
        const int lane = pickLaneLocked();
        if (lane >= 0) {
            auto &dq = lanes_[lane];
            sweepExpiredLocked(static_cast<std::size_t>(lane), now);
            if (dq.empty())
                continue; // the whole lane had expired; re-pick
            const auto it =
                std::min_element(dq.begin(), dq.end(), edfBefore);
            Request req = std::move(*it);
            dq.erase(it);
            req.popped_at = now;
            releaseTenantSlotLocked(req);
            checkStarvationLocked(static_cast<std::size_t>(lane), now);
            traceDepthLocked(now);
            lock.unlock();
            maybeTrip();
            return req;
        }
        if (closed_)
            return std::nullopt;
        // This consumer is idle: a batch aging elsewhere must close
        // now rather than wait for company (work conservation).
        ++idlePoppers_;
        arrivalCv_.notify_all();
        cv_.wait(lock);
        --idlePoppers_;
    }
}

std::optional<Request>
RequestQueue::popCompatible(const Request &proto,
                            std::uint64_t root_budget,
                            Clock::time_point batch_dropdead)
{
    const auto now = Clock::now();
    const auto lane = static_cast<std::size_t>(proto.lane);
    auto lock = mutex_.lock();
    // Sweep first so candidate selection never walks over corpses
    // (and deque::erase never invalidates the chosen iterator).
    sweepExpiredLocked(lane, now);
    auto &dq = lanes_[lane];
    auto best = dq.end();
    for (auto it = dq.begin(); it != dq.end(); ++it) {
        if (!batchCompatible(*it, proto) ||
            it->plan.batch_size > root_budget)
            continue;
        // Straddle rule: a rider due *before* the forming batch's
        // drop-dead point must not be merged into it — it needs to
        // run sooner than the batch it would join.
        if (it->deadline < batch_dropdead)
            continue;
        if (best == dq.end() || edfBefore(*it, *best))
            best = it;
    }
    if (best == dq.end()) {
        lock.unlock();
        maybeTrip();
        return std::nullopt;
    }
    Request req = std::move(*best);
    dq.erase(best);
    req.popped_at = now;
    releaseTenantSlotLocked(req);
    traceDepthLocked(now);
    lock.unlock();
    maybeTrip();
    return req;
}

void
RequestQueue::shed(Request &&req, Status status, ShedCause cause)
{
    const auto now = Clock::now();
    {
        const auto lock = mutex_.lock();
        shedLocked(std::move(req), std::move(status), cause, now);
    }
    maybeTrip();
}

bool
RequestQueue::waitForArrival(std::uint64_t seen_arrivals,
                             Clock::time_point until)
{
    auto lock = mutex_.lock();
    while (arrivals_ <= seen_arrivals && !closed_ && idlePoppers_ == 0) {
        if (arrivalCv_.wait_until(lock, until) ==
            std::cv_status::timeout)
            break;
    }
    return arrivals_ > seen_arrivals;
}

void
RequestQueue::close()
{
    {
        const auto lock = mutex_.lock();
        closed_ = true;
    }
    cv_.notify_all();
    arrivalCv_.notify_all();
}

void
RequestQueue::cancelPending()
{
    std::deque<Request> orphans;
    {
        const auto lock = mutex_.lock();
        for (auto &dq : lanes_) {
            for (Request &req : dq)
                orphans.push_back(std::move(req));
            dq.clear();
        }
        batchTenantDepth_.clear();
    }
    const auto now = Clock::now();
    for (Request &req : orphans) {
        Reply reply;
        reply.status = Status(StatusCode::Cancelled,
                              "service shut down before execution");
        reply.trace_id = req.trace_id;
        reply.span_id = req.trace.span_id;
        reply.tenant = req.tenant;
        reply.lane = req.lane;
        reply.stages.queue_us = elapsedUs(req.enqueued_at, now);
        reply.e2e_us = reply.stages.queue_us;
        cancelled_.inc();
        req.promise.set_value(std::move(reply));
    }
    cv_.notify_all();
    arrivalCv_.notify_all();
}

bool
RequestQueue::closed() const
{
    const auto lock = mutex_.lock();
    return closed_;
}

std::size_t
RequestQueue::depth() const
{
    const auto lock = mutex_.lock();
    return lanes_[0].size() + lanes_[1].size();
}

std::size_t
RequestQueue::laneDepth(Lane lane) const
{
    const auto lock = mutex_.lock();
    return lanes_[static_cast<std::size_t>(lane)].size();
}

std::uint64_t
RequestQueue::arrivals() const
{
    const auto lock = mutex_.lock();
    return arrivals_;
}

std::uint32_t
RequestQueue::idlePoppers() const
{
    const auto lock = mutex_.lock();
    return idlePoppers_;
}

} // namespace service
} // namespace lsdgnn
