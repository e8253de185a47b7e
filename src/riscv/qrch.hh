/**
 * @file
 * QRCH: queue-based RISC-V coprocessor communication hub.
 *
 * The hub owns a set of bounded word queues. The RISC-V side reaches
 * them through the custom-0 instructions (qrch.enq/deq/stat); the
 * accelerator side attaches a consumer callback per queue or polls.
 * This is the paper's middle point between MMIO (slow, coarse) and a
 * tightly-coupled ISA extension (fast but invasive): ~10-cycle
 * interaction, decent programmability, easy to extend — Table 7.
 */

#ifndef LSDGNN_RISCV_QRCH_HH
#define LSDGNN_RISCV_QRCH_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"

namespace lsdgnn {
namespace riscv {

/**
 * The queue hub shared by the RISC-V core and accelerator models.
 */
class QrchHub
{
  public:
    /** Consumer invoked when the core enqueues into a queue. */
    using Consumer = std::function<void(std::uint32_t lo,
                                        std::uint32_t hi)>;

    /**
     * @param num_queues Number of queues (command + response pairs).
     * @param depth Entries per queue.
     */
    explicit QrchHub(std::uint32_t num_queues = 8,
                     std::uint32_t depth = 16);

    std::uint32_t numQueues() const
    {
        return static_cast<std::uint32_t>(queues.size());
    }

    /**
     * Core-side enqueue of a (lo, hi) pair.
     * @return false when the queue is full (core must retry).
     */
    bool enqueue(std::uint32_t qid, std::uint32_t lo, std::uint32_t hi);

    /**
     * Core- or accelerator-side dequeue of one word.
     * @return false when empty.
     */
    bool dequeue(std::uint32_t qid, std::uint32_t &value);

    /** Words currently queued. */
    std::uint32_t occupancy(std::uint32_t qid) const;

    /** Accelerator-side push (responses back to the core). */
    bool push(std::uint32_t qid, std::uint32_t value);

    /**
     * Attach an accelerator consumer: every pair the core enqueues is
     * delivered immediately (the accelerator reads the queue head).
     */
    void setConsumer(std::uint32_t qid, Consumer consumer);

    /**
     * Provide simulated time for trace counter events. The hub lives
     * below the DES layer, so without a source the trace emission of
     * queue depths stays off (statistics still accumulate).
     */
    void setTickSource(std::function<Tick()> now) { clock = std::move(now); }

    std::uint64_t totalEnqueues() const { return enqueues.value(); }
    std::uint64_t totalDequeues() const { return dequeues.value(); }

    /** Queue-depth distribution observed at enqueue time. */
    const stats::Histogram &occupancyHistogram() const { return depths; }

    const stats::StatGroup &stats() const { return group; }

  private:
    void checkQid(std::uint32_t qid) const;
    void traceDepth(std::uint32_t qid) const;

    std::vector<std::deque<std::uint32_t>> queues;
    std::vector<Consumer> consumers;
    std::uint32_t depth_;
    std::function<Tick()> clock;
    stats::Counter enqueues;
    stats::Counter dequeues;
    stats::Histogram depths;
    stats::StatGroup group{"riscv.qrch"}; ///< after its stats
};

} // namespace riscv
} // namespace lsdgnn

#endif // LSDGNN_RISCV_QRCH_HH
