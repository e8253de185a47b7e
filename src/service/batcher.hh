/**
 * @file
 * Dynamic micro-batching of compatible sampling requests.
 *
 * The software analogue of MoF's Tech-1 request packing, applied one
 * layer up: where the MoF endpoint coalesces memory requests into one
 * fabric package inside a staging/aging window, the Batcher coalesces
 * *service* requests with the same plan shape into one backend
 * execution. One merged `sampleBatch` call amortizes per-command
 * overhead (and, on the AxeOffload backend, per-Table-4-command cost)
 * across every rider.
 *
 * Batching is opportunistic: a micro-batch takes only the compatible
 * riders that are already queued when its first rider is popped, so a
 * free worker never waits for company. A merged execution is not free
 * on the Software backend (about twice a solo one for two riders, plus
 * the split), so waiting to fill a batch costs a lone request more
 * than it saves; under backlog, riders are queued and merge anyway.
 * A micro-batch closes when any of these limits is hit:
 *   - `max_requests` riders collected,
 *   - `max_roots` total merged batch size reached,
 *   - no compatible rider is queued (with the default zero `window`),
 *   - the aging `window` since the first rider expired, or another
 *     worker went idle (only with a positive `window`).
 *
 * A positive `window` turns on MoF-style aging: while every other
 * worker is busy, the batch waits up to `window` for riders to arrive
 * (RequestQueue::waitForArrival), and it closes as soon as a peer
 * goes idle (RequestQueue counts the workers blocked in pop()).
 *
 * Only the Interactive lane merges. A Batch-lane request forms a batch
 * of its own: while a worker executes Batch work it cannot serve the
 * Interactive lane, so a worker busy with Batch work frees up after one
 * Batch request, not after up to `max_requests` of them.
 *
 * Formation is deadline-aware (EDF). The first rider popped is the
 * lane's earliest deadline, and its deadline becomes the batch's
 * *drop-dead point*: the aging window never stretches past it, riders
 * due before it are never merged in (the queue's straddle rule), and
 * riders found expired when the batch closes are shed instead of
 * executed — a formed batch never carries an already-expired request.
 *
 * Merging concatenates root ranges; splitting hands every frontier
 * entry back to the request that owns its root, with parent indices
 * remapped into the per-request sub-frontier. The sampling engine
 * emits children in parent order, so each rider owns one contiguous
 * range of every level: the split finds the range boundaries by
 * binary search and copies each slice whole. Requests therefore
 * receive exactly the SampleResult they would have gotten from a lone
 * execution with the same root draw.
 */

#ifndef LSDGNN_SERVICE_BATCHER_HH
#define LSDGNN_SERVICE_BATCHER_HH

#include <chrono>
#include <vector>

#include "service/request_queue.hh"

namespace lsdgnn {
namespace service {

/**
 * Reusable buffers for Batcher::splitInto: per-rider range boundaries
 * of the current and next level for the contiguous fast path, the
 * owner/remap chains that thread parent indices through the hop
 * levels on the general path, plus per-rider counts doubling as write
 * cursors. Single-owner, like SampleScratch.
 */
struct SplitScratch {
    std::vector<std::uint32_t> bounds;
    std::vector<std::uint32_t> next_bounds;
    std::vector<std::uint32_t> owner;
    std::vector<std::uint32_t> remap;
    std::vector<std::uint32_t> next_owner;
    std::vector<std::uint32_t> next_remap;
    std::vector<std::uint32_t> counts;
};

/** Micro-batching knobs. */
struct BatcherConfig {
    /** Max Interactive requests coalesced into one execution. */
    std::uint32_t max_requests = 8;
    /** Cap on the merged batch_size (sum of rider batch sizes). */
    std::uint64_t max_roots = 4096;
    /**
     * Aging window: the longest the first rider waits for company.
     * 0 (the default) merges only riders already queued, so a batch
     * never waits. A positive window applies only while every other
     * worker is busy; a batch stops aging as soon as another worker
     * is idle (see the file comment).
     */
    std::chrono::microseconds window{0};
};

/** Collects, merges and splits micro-batches. Stateless per batch. */
class Batcher
{
  public:
    explicit Batcher(BatcherConfig config);

    const BatcherConfig &config() const { return config_; }

    /**
     * Blocking: collect one micro-batch from @p queue into @p out
     * (cleared first). Returns false only when the queue is closed
     * and drained; otherwise at least one request is delivered. Each
     * rider carries the time it left the queue (Request::popped_at).
     */
    bool collect(RequestQueue &queue, std::vector<Request> &out) const;

    /** One plan covering every rider (batch_size = sum of riders). */
    static sampling::SamplePlan merge(const std::vector<Request> &batch);

    /**
     * Partition @p merged back into per-rider results.
     *
     * @param merged Result of executing the merged plan.
     * @param root_counts batch_size of each rider, in merge order;
     *        must sum to merged.roots.size().
     */
    static std::vector<sampling::SampleResult>
    split(const sampling::SampleResult &merged,
          const std::vector<std::uint32_t> &root_counts);

    /**
     * Hot-path split: like split(), but reuses @p scratch and the
     * capacity already held by the elements of @p out (resized to one
     * result per rider, cleared first). Each rider's sub-frontiers are
     * sized exactly before any element is written, so steady-state
     * execution performs no heap allocation. Levels with
     * non-decreasing parents (what the sampling engine emits) take a
     * copy-per-rider fast path; any other level falls back to an
     * entry-by-entry owner/remap walk.
     */
    static void splitInto(const sampling::SampleResult &merged,
                          const std::vector<std::uint32_t> &root_counts,
                          SplitScratch &scratch,
                          std::vector<sampling::SampleResult> &out);

  private:
    BatcherConfig config_;
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_BATCHER_HH
