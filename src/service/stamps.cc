#include "stamps.hh"

#include <ctime>

namespace lsdgnn {
namespace service {

namespace {

thread_local LockWaits tally;

} // namespace

std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

const LockWaits &
threadLockWaits()
{
    return tally;
}

std::unique_lock<std::mutex>
TimedMutex::lock()
{
    std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
    if (lock.owns_lock())
        return lock;
    const auto start = Clock::now();
    lock.lock();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
    contended_.inc();
    waitNs_.inc(ns);
    (site_ == LockSite::Queue ? tally.queue_ns : tally.stats_ns) += ns;
    return lock;
}

void
BatchStamps::stamp(Reply &reply, const Request &rider,
                   const ThreadMark &from) const
{
    const auto replied = Clock::now();
    const ThreadMark mark = ThreadMark::now();
    const LockWaits reply_locks =
        lockWaitsSince(from.locks, mark.locks);
    StageTimes &s = reply.stages;
    s.queue_us = elapsedUs(rider.enqueued_at, rider.popped_at);
    s.batch_us = elapsedUs(rider.popped_at, exec_start);
    s.handoff_us = elapsedUs(exec_start, sample_start) +
                   elapsedUs(gather_end, compute_start);
    s.sample_us = elapsedUs(sample_start, sample_end);
    s.gather_us = elapsedUs(sample_end, gather_end);
    s.compute_us = elapsedUs(compute_start, work_end);
    s.reply_us = elapsedUs(work_end, replied);
    reply.e2e_us = elapsedUs(rider.enqueued_at, replied);
    reply.cpu = cpu;
    reply.cpu.reply_us = cpuUs(from.cpu_ns, mark.cpu_ns);
    reply.queue_lock_us =
        static_cast<double>(rider.admit_lock_ns + locks.queue_ns +
                            reply_locks.queue_ns) /
        1000.0;
    reply.stats_lock_us =
        static_cast<double>(locks.stats_ns + reply_locks.stats_ns) /
        1000.0;
}

} // namespace service
} // namespace lsdgnn
