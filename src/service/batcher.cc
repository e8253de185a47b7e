#include "batcher.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace lsdgnn {
namespace service {

Batcher::Batcher(BatcherConfig config) : config_(config)
{
    lsd_assert(config_.max_requests > 0, "batcher needs max_requests");
    lsd_assert(config_.max_roots > 0, "batcher needs max_roots");
}

bool
Batcher::collect(RequestQueue &queue, std::vector<Request> &out) const
{
    while (true) {
        out.clear();
        auto first = queue.pop();
        if (!first)
            return false;
        const auto popped_at = first->popped_at;
        std::uint64_t roots = first->plan.batch_size;
        // The queue pops earliest-deadline-first, so the first
        // rider's deadline is the batch's drop-dead point. The aging
        // window never waits past it, and the queue's straddle rule
        // keeps riders due before it out of this batch.
        const auto dropdead = first->deadline;
        const auto window_end =
            std::min(popped_at + config_.window, dropdead);
        // Batch-lane requests run alone (see the file comment).
        const std::size_t max_riders =
            first->lane == Lane::Batch ? 1 : config_.max_requests;
        out.push_back(std::move(*first));

        const bool aging = config_.window.count() > 0;
        while (out.size() < max_riders &&
               roots < config_.max_roots) {
            // Snapshot the arrival counter *before* scanning so an
            // arrival racing with the scan wakes the wait immediately.
            const std::uint64_t seen = aging ? queue.arrivals() : 0;
            if (auto rider = queue.popCompatible(
                    out.front(), config_.max_roots - roots, dropdead)) {
                roots += rider->plan.batch_size;
                out.push_back(std::move(*rider));
                continue;
            }
            // Without a window, take only the riders already queued.
            if (!aging || Clock::now() >= window_end)
                break;
            // Age only while every other worker is busy: the wait
            // also ends when a peer idles in pop().
            if (!queue.waitForArrival(seen, window_end))
                break; // aged out, a worker is idle, or closed
        }

        // Final expiry sweep: a request whose deadline passed while
        // the batch formed must not ride into execution — shed it now
        // (through the queue's accounting) instead of spending backend
        // time on a dead answer.
        const auto now = Clock::now();
        for (auto it = out.begin(); it != out.end();) {
            if (it->deadline > now) {
                ++it;
                continue;
            }
            queue.shed(std::move(*it),
                       Status(StatusCode::DeadlineExceeded,
                              "expired at batch close"),
                       ShedCause::DeadlineDrop);
            it = out.erase(it);
        }
        if (!out.empty())
            return true;
        // Every rider expired while aging; form the next batch.
    }
}

sampling::SamplePlan
Batcher::merge(const std::vector<Request> &batch)
{
    lsd_assert(!batch.empty(), "cannot merge an empty batch");
    sampling::SamplePlan plan = batch.front().plan;
    std::uint64_t roots = plan.batch_size;
    // Compatibility binds riders to the front, not the front to
    // itself: a seeded request is never *merge*-compatible (not even
    // with an identical twin) yet forms a perfectly valid solo batch.
    for (std::size_t i = 1; i < batch.size(); ++i) {
        lsd_assert(batchCompatible(batch[i], batch.front()),
                   "incompatible rider in micro-batch");
        roots += batch[i].plan.batch_size;
    }
    plan.batch_size = static_cast<std::uint32_t>(roots);
    return plan;
}

std::vector<sampling::SampleResult>
Batcher::split(const sampling::SampleResult &merged,
               const std::vector<std::uint32_t> &root_counts)
{
    SplitScratch scratch;
    std::vector<sampling::SampleResult> out;
    splitInto(merged, root_counts, scratch, out);
    return out;
}

void
Batcher::splitInto(const sampling::SampleResult &merged,
                   const std::vector<std::uint32_t> &root_counts,
                   SplitScratch &scratch,
                   std::vector<sampling::SampleResult> &out)
{
    const std::size_t parts = root_counts.size();
    lsd_assert(parts > 0, "split needs at least one part");

    const std::uint64_t total_roots = std::accumulate(
        root_counts.begin(), root_counts.end(), std::uint64_t{0});
    lsd_assert(total_roots == merged.roots.size(),
               "root counts (", total_roots, ") do not cover merged roots (",
               merged.roots.size(), ")");

    const std::size_t hops = merged.frontier.size();
    out.resize(parts);
    for (auto &sub : out) {
        // No clearForReuse: every level of every rider is fully
        // defined below (roots/fast path by assign, general path by
        // exact-size resize + cursor writes), so stale sizes are
        // harmless and save re-initialization.
        sub.frontier.resize(hops);
        sub.parent.resize(hops);
    }

    // Roots: rider i owns the contiguous slice [offset_i, offset_i+n_i).
    // As long as every level keeps that shape — each rider's entries
    // form one contiguous range, in rider order — the whole mapping is
    // described by parts+1 boundary offsets: owner(p) is the range
    // containing p and remap(p) = p - bounds[owner(p)]. The sampling
    // engine emits children in parent order, which preserves the shape
    // hop over hop, so the contiguous mode is the steady-state path;
    // the owner/remap arrays are only materialized if a caller hands
    // in a merged result with out-of-order parents.
    auto &bounds = scratch.bounds;
    bounds.resize(parts + 1);
    bounds[0] = 0;
    for (std::size_t i = 0; i < parts; ++i) {
        bounds[i + 1] = bounds[i] + root_counts[i];
        const auto base = merged.roots.begin() +
                          static_cast<std::ptrdiff_t>(bounds[i]);
        out[i].roots.assign(base, base + root_counts[i]);
    }
    bool contiguous = true;

    auto &next_bounds = scratch.next_bounds;
    next_bounds.resize(parts + 1);
    auto &owner = scratch.owner;
    auto &remap = scratch.remap;
    auto &counts = scratch.counts;
    for (std::size_t h = 0; h < hops; ++h) {
        const auto &frontier = merged.frontier[h];
        const auto &parent = merged.parent[h];
        lsd_assert(frontier.size() == parent.size(),
                   "merged frontier/parent size mismatch at hop ", h);
        const std::uint32_t prev_size =
            contiguous ? bounds[parts]
                       : static_cast<std::uint32_t>(owner.size());
        // The owner/remap chain feeds the *next* hop's rebase; on the
        // last hop (the bulk of the result) it has no consumer.
        const bool chain_needed = h + 1 < hops;

        if (contiguous) {
            // One branch-free scan for a descent. Non-decreasing
            // parents need no per-entry work beyond it: the range
            // check is on the last parent, and each rider's range is
            // one binary search.
            const std::uint32_t *par = parent.data();
            const std::size_t n = parent.size();
            bool descends = false;
            for (std::size_t j = 1; j < n; ++j)
                descends |= par[j] < par[j - 1];
            if (!descends) {
                lsd_assert(n == 0 || par[n - 1] < prev_size,
                           "parent index out of range at hop ", h);
                // Rider i's children are the entries whose parent
                // lies in [bounds[i], bounds[i+1]): one range of the
                // sorted parents, found by binary search. Copy its
                // frontier slice whole and rebase its parents by the
                // rider's offset in the previous level.
                next_bounds[0] = 0;
                for (std::size_t i = 1; i < parts; ++i)
                    next_bounds[i] = static_cast<std::uint32_t>(
                        std::lower_bound(par + next_bounds[i - 1],
                                         par + n, bounds[i]) -
                        par);
                next_bounds[parts] = static_cast<std::uint32_t>(n);
                for (std::size_t i = 0; i < parts; ++i) {
                    const std::size_t begin = next_bounds[i];
                    const std::size_t count = next_bounds[i + 1] - begin;
                    auto &sub = out[i];
                    sub.frontier[h].assign(frontier.data() + begin,
                                           frontier.data() + begin +
                                               count);
                    sub.parent[h].resize(count);
                    const std::uint32_t base = bounds[i];
                    const std::uint32_t *src = par + begin;
                    std::uint32_t *dst = sub.parent[h].data();
                    for (std::size_t j = 0; j < count; ++j)
                        dst[j] = src[j] - base;
                }
                bounds.swap(next_bounds);
                continue;
            }
            // Out-of-order parents: materialize the boundary mapping
            // as explicit owner/remap arrays and take the general
            // path for this and subsequent hops.
            owner.resize(prev_size);
            remap.resize(prev_size);
            for (std::size_t i = 0; i < parts; ++i)
                for (std::uint32_t p = bounds[i]; p < bounds[i + 1];
                     ++p) {
                    owner[p] = static_cast<std::uint32_t>(i);
                    remap[p] = p - bounds[i];
                }
            contiguous = false;
        }

        // General path. Counting pass first, then counts double as
        // per-rider write cursors.
        counts.assign(parts, 0);
        for (std::size_t j = 0; j < parent.size(); ++j) {
            const std::uint32_t p = parent[j];
            lsd_assert(p < prev_size,
                       "parent index out of range at hop ", h);
            ++counts[owner[p]];
        }
        auto &next_owner = scratch.next_owner;
        auto &next_remap = scratch.next_remap;
        next_owner.resize(chain_needed ? frontier.size() : 0);
        next_remap.resize(chain_needed ? frontier.size() : 0);
        for (std::size_t i = 0; i < parts; ++i) {
            out[i].frontier[h].resize(counts[i]);
            out[i].parent[h].resize(counts[i]);
        }
        counts.assign(parts, 0);
        for (std::size_t j = 0; j < frontier.size(); ++j) {
            const std::uint32_t p = parent[j];
            const std::uint32_t o = owner[p];
            const std::uint32_t k = counts[o]++;
            auto &sub = out[o];
            sub.frontier[h][k] = frontier[j];
            sub.parent[h][k] = remap[p];
            if (chain_needed) {
                next_owner[j] = o;
                next_remap[j] = k;
            }
        }
        owner.swap(next_owner);
        remap.swap(next_remap);
    }
}

} // namespace service
} // namespace lsdgnn
