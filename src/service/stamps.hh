/**
 * @file
 * Where a request's time goes: thread CPU clocks, timed mutexes and
 * the per-batch stamps the worker pool turns into each Reply's named
 * stages.
 *
 * A request is stamped when it is admitted (enqueue) and when it
 * leaves the queue (pop). Its micro-batch is stamped at batch close
 * (execution start), sampling start and end, gather end, compute
 * start and end; the rider itself is stamped once more just before
 * its reply is completed. The stages are the intervals between
 * consecutive stamps, so they cover submit-to-reply without gaps or
 * overlaps and sum to Reply::e2e_us (see StageTimes).
 *
 * Next to the wall stamps, the serving threads read their own CPU
 * clock (CLOCK_THREAD_CPUTIME_ID) at the same points, which splits
 * each stage into work and waiting. The two service mutexes a request
 * crosses — the RequestQueue's and the ServiceStats' — are
 * TimedMutexes: an uncontended lock costs one try_lock, a contended
 * one is timed and counted for the mutex's owner and for the calling
 * thread, whose tally the worker pool charges to the requests it is
 * serving.
 */

#ifndef LSDGNN_SERVICE_STAMPS_HH
#define LSDGNN_SERVICE_STAMPS_HH

#include <cstdint>
#include <mutex>

#include "common/stats.hh"
#include "service/request.hh"

namespace lsdgnn {
namespace service {

/** CPU time the calling thread has used, nanoseconds. */
std::uint64_t threadCpuNs();

/** Whole nanoseconds in @p us microseconds (0 for negative input). */
inline std::uint64_t
toNs(double us)
{
    return us > 0.0 ? static_cast<std::uint64_t>(us * 1000.0) : 0;
}

/** Microseconds between two threadCpuNs() readings. */
inline double
cpuUs(std::uint64_t from, std::uint64_t to)
{
    return static_cast<double>(to - from) / 1000.0;
}

/** The service mutexes whose contention is measured. */
enum class LockSite : std::uint8_t {
    Queue = 0, ///< RequestQueue
    Stats = 1, ///< ServiceStats
};

/** Time one thread spent blocked on each LockSite, nanoseconds. */
struct LockWaits {
    std::uint64_t queue_ns = 0;
    std::uint64_t stats_ns = 0;
};

/** The calling thread's running lock-wait tally. */
const LockWaits &threadLockWaits();

/** Lock waits accumulated from @p from to @p to (one thread's tally). */
inline LockWaits
lockWaitsSince(const LockWaits &from, const LockWaits &to)
{
    return {to.queue_ns - from.queue_ns, to.stats_ns - from.stats_ns};
}

/** Where the calling thread's CPU clock and lock tally stand. */
struct ThreadMark {
    std::uint64_t cpu_ns = 0;
    LockWaits locks;

    static ThreadMark
    now()
    {
        return {threadCpuNs(), threadLockWaits()};
    }
};

/**
 * A std::mutex that measures its contention. lock() first tries
 * without blocking; only when that fails does it read the clock, block
 * and add the blocked time to the calling thread's tally and to the
 * owner's counters (written under the mutex just taken, so they stay
 * single-writer). The unique_lock it returns works with
 * std::condition_variable; a condition wait's re-acquisition is not
 * timed (it is part of waiting, not contention).
 */
class TimedMutex
{
  public:
    explicit TimedMutex(LockSite site) : site_(site) {}

    std::unique_lock<std::mutex> lock();

    /** Acquisitions that had to block (register in the owner's group). */
    stats::Counter &contended() { return contended_; }
    /** Total blocked time of those acquisitions, nanoseconds. */
    stats::Counter &waitNs() { return waitNs_; }

    TimedMutex(const TimedMutex &) = delete;
    TimedMutex &operator=(const TimedMutex &) = delete;

  private:
    std::mutex mutex_;
    LockSite site_;
    stats::Counter contended_;
    stats::Counter waitNs_;
};

/**
 * The stamps one micro-batch collects on its way through a worker.
 * Wall-clock points bound the stages; the CPU fields hold the thread
 * CPU the serving threads spent in each stage (shared by every rider
 * of the batch); the lock tally is what the serving threads waited on
 * service mutexes for this batch before the reply loop.
 *
 * For a Sample batch the gather and compute stamps equal sample_end:
 * those stages are empty and the split into riders belongs to the
 * reply stage.
 */
struct BatchStamps {
    Clock::time_point exec_start{};    ///< batch close
    Clock::time_point sample_start{};  ///< after set-up / buffer wait
    Clock::time_point sample_end{};
    Clock::time_point gather_end{};
    Clock::time_point compute_start{}; ///< compute thread picked it up
    Clock::time_point work_end{};      ///< the last stage before reply
    StageTimes cpu;                    ///< reply_us unused (per rider)
    LockWaits locks;

    /**
     * Stamp @p rider's reply now: fill @p reply's stages, CPU split,
     * lock waits and e2e_us. @p from is the replying thread's mark at
     * work_end; the reply stage's CPU and lock waits are that
     * thread's since then.
     */
    void stamp(Reply &reply, const Request &rider,
               const ThreadMark &from) const;
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_STAMPS_HH
