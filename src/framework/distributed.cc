#include "distributed.hh"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>

#include "common/flight_recorder.hh"

namespace lsdgnn {
namespace framework {

namespace {

std::uint32_t
effectiveShards(const SessionConfig &config)
{
    const std::uint32_t shards = config.distributed.num_shards != 0
                                     ? config.distributed.num_shards
                                     : config.num_servers;
    lsd_assert(shards > 0, "distributed store needs shards");
    return shards;
}

} // namespace

void
DistributedBackend::BatchDedup::begin(std::size_t expected)
{
    std::size_t want = 16;
    while (want < expected * 2)
        want <<= 1;
    if (table_.size() < want) {
        table_.assign(want, Entry{});
        epoch_ = 0;
    }
    mask_ = table_.size() - 1;
    ++epoch_;
    if (epoch_ == 0) { // u32 wrap: stale stamps would alias
        std::fill(table_.begin(), table_.end(), Entry{});
        epoch_ = 1;
    }
}

std::size_t
DistributedBackend::BatchDedup::probe(graph::NodeId key) const
{
    // Fibonacci hashing; high bits survive the mask.
    return static_cast<std::size_t>(
               (key * 0x9E3779B97F4A7C15ull) >> 17) &
           mask_;
}

mof::ShardChannel::Slot *
DistributedBackend::BatchDedup::acquire(graph::NodeId key,
                                        bool &found)
{
    std::size_t h = probe(key);
    for (; table_[h].epoch == epoch_; h = (h + 1) & mask_)
        if (table_[h].key == key) {
            found = true;
            return &table_[h].slot;
        }
    table_[h].key = key;
    table_[h].epoch = epoch_;
    found = false;
    return &table_[h].slot;
}

DistributedStore::DistributedStore(const SessionConfig &config)
    : graph_(graph::instantiate(graph::datasetByName(config.dataset),
                                config.scale_divisor, config.seed)),
      attrs_(graph::datasetByName(config.dataset).attr_len,
             config.seed),
      part_(graph_.numNodes(), effectiveShards(config))
{
    const std::uint32_t shards = part_.numServers();
    shards_.reserve(shards);
    for (std::uint32_t k = 0; k < shards; ++k)
        shards_.emplace_back(graph_, part_, k);
    if (config.distributed.cache_mb > 0.0)
        buildCaches(config);
}

void
DistributedStore::buildCaches(const SessionConfig &config)
{
    const auto budget = static_cast<std::uint64_t>(
        config.distributed.cache_mb * (1ull << 20));
    if (budget == 0)
        return;

    // The warm set is the same for every shard: all nodes by
    // descending degree (id ascending on ties, so the order — and
    // therefore the replicated hot set — is deterministic).
    std::vector<graph::NodeId> by_degree(graph_.numNodes());
    for (graph::NodeId n = 0; n < graph_.numNodes(); ++n)
        by_degree[n] = n;
    std::sort(by_degree.begin(), by_degree.end(),
              [this](graph::NodeId a, graph::NodeId b) {
                  const std::uint64_t da = graph_.degree(a);
                  const std::uint64_t db = graph_.degree(b);
                  return da != db ? da > db : a < b;
              });

    const std::uint32_t shards = part_.numServers();
    caches_.reserve(shards);
    for (std::uint32_t k = 0; k < shards; ++k) {
        cache::HotVertexCacheParams p;
        p.capacity_bytes = budget;
        p.attr_bytes = attrs_.bytesPerNode();
        p.stat_name = "cache.shard" + std::to_string(k);
        p.flight_gauges = true;
        p.entries_hint = std::max<std::size_t>(
            64, budget / (cache::HotVertexCache::entry_overhead_bytes +
                          attrs_.bytesPerNode() + 64));
        auto tier = std::make_unique<cache::HotVertexCache>(p);

        // Top-K-degree warmup: replicate the hottest *remote*
        // vertices (self-owned nodes are already local) until the
        // budget refuses the next admission. Warm entries carry the
        // degree prior so post-warmup traffic must out-score them.
        for (graph::NodeId n : by_degree) {
            if (part_.serverOf(n) == k)
                continue;
            if (!tier->admitAdjacency(n, graph_.neighbors(n)))
                break;
            tier->admitAttributes(n, graph_.degree(n));
        }
        caches_.push_back(std::move(tier));
    }
}

std::shared_ptr<const DistributedStore>
DistributedStore::create(const SessionConfig &config)
{
    return std::make_shared<const DistributedStore>(config);
}

DistributedBackend::DistributedBackend(
    const SessionConfig &config,
    std::shared_ptr<const DistributedStore> store,
    const sampling::NeighborSampler &sampler)
    : store_(std::move(store)),
      sampler_(sampler),
      self_(config.distributed.shard),
      cache_(store_->cache(self_)),
      asyncFabric_(config.distributed.async_fabric),
      maxInflightBound_(config.distributed.max_inflight_reads),
      group_("mof.remote.shard" + std::to_string(self_))
{
    const DistributedConfig &d = config.distributed;
    const std::uint32_t shards = store_->numShards();
    lsd_assert(self_ < shards, "shard id ", self_, " out of range (",
               shards, " shards)");

    channels_.resize(shards);
    books_.resize(shards);
    for (std::uint32_t peer = 0; peer < shards; ++peer) {
        if (peer == self_)
            continue;
        mof::ShardChannelParams p;
        p.wire.loss_probability = d.loss_probability;
        p.wire.ack_loss_probability = d.loss_probability;
        p.wire.max_retries = d.max_retries;
        // Distinct deterministic loss streams per directed pair.
        p.wire.seed = config.seed * 7919 + self_ * 2 * shards +
                      peer * 2 + 1;
        p.request_timeout = microseconds(d.request_timeout_us);
        p.stage_age = microseconds(d.stage_age_us);
        if (d.async_fabric && d.hedge_quantile > 0.0) {
            p.hedge_quantile = d.hedge_quantile;
            p.hedge_multiplier = d.hedge_multiplier;
            p.hedge_floor = microseconds(d.hedge_floor_us);
        }
        channels_[peer] = std::make_unique<mof::ShardChannel>(
            eq_, p, self_, peer);
        channels_[peer]->setCompletion(
            [this, peer](mof::ShardChannel &ch,
                         mof::ShardChannel::Slot first,
                         std::uint32_t count) {
                onSlotsSettled(peer, ch, first, count);
            });
        if (std::find(d.down_shards.begin(), d.down_shards.end(),
                      peer) != d.down_shards.end())
            channels_[peer]->markDown();
    }

    group_.addCounter("local", &localReads_,
                      "reads answered from the local shard");
    group_.addCounter("remote", &remoteReads_,
                      "reads that needed a remote shard");
    group_.addCounter("cached", &cached_,
                      "remote structure reads answered by the "
                      "hot-vertex cache tier");
    group_.addCounter("attr_cached", &attrCached_,
                      "remote attribute reads answered by the "
                      "hot-vertex cache tier");
    group_.addCounter("coalesced", &coalesced_,
                      "remote reads merged into an already-submitted "
                      "read of the same node");
    group_.addCounter("degraded", &degraded_,
                      "remote reads answered by the local fallback");
    group_.addCounter("batches", &batches_,
                      "mini-batches sampled on this shard");
    group_.addCounter("stall_trips", &stallTrips_,
                      "flight-recorder trips on the in-flight bound");

    auto &flight = trace::FlightRecorder::instance();
    const std::string shard_tag = "mof.shard" + std::to_string(self_);
    inflightGaugeHandle_ = flight.registerGauge(
        shard_tag + ".inflight_reads", [this] {
            return static_cast<double>(
                gaugeInflight_.load(std::memory_order_relaxed));
        });
    stageAgeGaugeHandle_ = flight.registerGauge(
        shard_tag + ".staging_age_us", [this] {
            return static_cast<double>(gaugeStageAgePs_.load(
                       std::memory_order_relaxed)) /
                   1e6;
        });

    if (cache_ != nullptr) {
        memoIndex_.assign(store_->graph().numNodes(), 0);
        memoEpoch_.assign(store_->graph().numNodes(), 0);
    }
}

DistributedBackend::~DistributedBackend()
{
    auto &flight = trace::FlightRecorder::instance();
    flight.unregisterGauge(inflightGaugeHandle_);
    flight.unregisterGauge(stageAgeGaugeHandle_);
}

DistributedBackend::CachedVertex &
DistributedBackend::memoProbe(graph::NodeId node)
{
    if (memoEpoch_[node] == memoCurrentEpoch_)
        return batchCachedRefs_[memoIndex_[node]];
    auto view = cache_->lookupVertex(node);
    memoEpoch_[node] = memoCurrentEpoch_;
    memoIndex_[node] =
        static_cast<std::uint32_t>(batchCachedRefs_.size());
    batchCachedRefs_.push_back(CachedVertex{
        std::move(view.adjacency), view.has_attrs, false});
    return batchCachedRefs_.back();
}

void
DistributedBackend::subscribe(std::uint32_t peer,
                              mof::ShardChannel::Slot slot,
                              std::uint32_t root)
{
    PeerBook &book = books_[peer];
    if (book.waiters.size() <= slot)
        book.waiters.resize(slot + 1);
    book.waiters[slot].push_back(root);
}

void
DistributedBackend::noteInFlight()
{
    std::uint32_t total = 0;
    Tick age = 0;
    for (const auto &ch : channels_) {
        if (!ch)
            continue;
        total += ch->inFlightReads();
        age = std::max(age, ch->stagingAge());
    }
    inflightPeak_ = std::max<std::uint64_t>(inflightPeak_, total);
    gaugeInflight_.store(total, std::memory_order_relaxed);
    gaugeStageAgePs_.store(age, std::memory_order_relaxed);
    if (maxInflightBound_ != 0 && total > maxInflightBound_ &&
        !stallTripped_) {
        stallTripped_ = true;
        stallTrips_.inc();
        auto &flight = trace::FlightRecorder::instance();
        flight.recordNow("mof.inflight.stall", batchCtx_.trace_id,
                         batchCtx_.span_id,
                         static_cast<double>(total),
                         static_cast<double>(maxInflightBound_));
        flight.trip("mof.inflight.stall");
    }
}

void
DistributedBackend::onSlotsSettled(std::uint32_t peer,
                                   mof::ShardChannel &ch,
                                   mof::ShardChannel::Slot first,
                                   std::uint32_t count)
{
    PeerBook &book = books_[peer];
    const graph::CsrGraph &g = store_->graph();
    for (mof::ShardChannel::Slot s = first; s < first + count; ++s) {
        if (s < book.is_attr.size() && book.is_attr[s] != 0) {
            if (ch.failed(s))
                ++attrFailedBatch_;
            else if (cache_ != nullptr)
                cache_->admitAttributes(book.node[s],
                                        g.degree(book.node[s]));
        }
        if (s < book.waiters.size() && !book.waiters[s].empty()) {
            for (std::uint32_t id : book.waiters[s]) {
                RootState &r = roots_[id];
                lsd_assert(r.outstanding > 0,
                           "waiter without outstanding reads");
                if (--r.outstanding == 0)
                    runnable_.push_back(id);
            }
            book.waiters[s].clear();
        }
    }
    gaugeInflight_.store(
        [this] {
            std::uint32_t total = 0;
            for (const auto &c : channels_)
                if (c)
                    total += c->inFlightReads();
            return total;
        }(),
        std::memory_order_relaxed);
    if (!pumping_)
        pump();
}

void
DistributedBackend::pump()
{
    lsd_assert(!pumping_, "pump re-entered");
    pumping_ = true;
    while (!runnable_.empty()) {
        const std::uint32_t id = runnable_.front();
        runnable_.pop_front();
        advanceRoot(id);
    }
    pumping_ = false;
}

void
DistributedBackend::advanceRoot(std::uint32_t root)
{
    RootState &r = roots_[root];
    for (;;) {
        // A stale runnable entry (a root that was woken synchronously
        // mid-advance and then parked again, or already retired) must
        // not re-enter the state machine.
        if (r.done || r.outstanding > 0)
            return;
        switch (r.phase) {
        case Phase::Expand:
            if (r.hop == plan_->hops()) {
                r.phase = plan_->fetch_attributes ? Phase::Attrs
                                                  : Phase::Finish;
                break;
            }
            expandSubmit(root);
            r.phase = Phase::Resolve;
            if (r.outstanding > 0)
                return; // parked; a completion resumes us
            break;
        case Phase::Resolve:
            expandResolve(root);
            r.phase = Phase::Expand;
            break;
        case Phase::Attrs:
            // Attr fetches are fire-and-forget (no subscriptions), so
            // the root retires immediately; the batch-level event
            // drain settles the reads before endBatch.
            submitAttrs(root);
            r.phase = Phase::Finish;
            break;
        case Phase::Finish:
            r.done = true;
            lsd_assert(liveRoots_ > 0, "live-root underflow");
            --liveRoots_;
            return;
        }
    }
}

void
DistributedBackend::expandSubmit(std::uint32_t root)
{
    RootState &r = roots_[root];
    const std::uint32_t hop = r.hop;
    const std::uint32_t fanout = plan_->fanouts[hop];
    const graph::NodeId *prev;
    std::uint32_t prev_size;
    std::uint32_t parent_base; // strided index of prev[0] (hop 0: the
                               // root's index into out.roots)
    if (hop == 0) {
        prev = &r.root;
        prev_size = 1;
        parent_base = root;
    } else {
        const std::uint32_t pstride = hopStride_[hop - 1];
        prev = batchOut_->frontier[hop - 1].data() +
               std::size_t(root) * pstride;
        prev_size = r.counts[hop - 1];
        parent_base = root * pstride;
    }
    // This root's segment of the shared result arrays. The stride is
    // the hop's worst case, so the write cursor can never cross into
    // a neighbour's segment; assemble() squeezes out the slack.
    graph::NodeId *dst = batchOut_->frontier[hop].data() +
                         std::size_t(root) * hopStride_[hop];
    std::uint32_t *par = batchOut_->parent[hop].data() +
                         std::size_t(root) * hopStride_[hop];
    std::uint32_t &cur = r.counts[hop];
    cur = 0;
    r.pending.clear();

    const graph::Partitioner &part = store_->partitioner();
    const graph::GraphShard &home = store_->shard(self_);
    for (std::uint32_t i = 0; i < prev_size; ++i) {
        const graph::NodeId node = prev[i];
        const graph::ServerId owner = part.serverOf(node);
        if (owner == self_) {
            localReads_.inc();
            const std::uint32_t got = sampler_.sampleInto(
                home.neighbors(node), fanout, r.rng, dst + cur,
                scratch_.sampler);
            std::fill_n(par + cur, got, parent_base + i);
            cur += got;
            continue;
        }
        // Read-through: a hot-vertex-cache hit is answered from the
        // local replica and never touches a channel. It still takes
        // its position in the root's pending list so the root draws
        // its RNG in discovery order — output stays byte-identical
        // with the tier on or off. The tier is probed once per unique
        // node per BATCH; every further read of that node resolves
        // through the lock-free memo.
        if (cache_ != nullptr) {
            ++batchCacheLookups_;
            if (memoProbe(node).adjacency != nullptr) {
                ++batchCacheHits_;
                cached_.inc();
                r.pending.push_back(PendingDraw{
                    i, node, owner, memoIndex_[node], true});
                continue;
            }
        }
        remoteReads_.inc();
        mof::ShardChannel &ch = *channels_[owner];
        // Batch-scoped coalescing: any earlier read of this node —
        // by any root, at any hop — shares its slot. A slot that has
        // already settled costs nothing more; an in-flight one parks
        // this root alongside the original submitter. One probe
        // serves both the hit and the claim.
        bool seen;
        mof::ShardChannel::Slot *entry =
            structDedup_.acquire(node, seen);
        if (seen) {
            coalesced_.inc();
            r.pending.push_back(
                PendingDraw{i, node, owner, *entry, false});
            if (!ch.settled(*entry)) {
                subscribe(owner, *entry, root);
                ++r.outstanding;
            }
            continue;
        }
        const graph::GraphShard &owner_shard = store_->shard(owner);
        const std::uint64_t deg = owner_shard.degree(node);
        const auto bytes = static_cast<std::uint32_t>(
            (1 + deg) * sampling::structure_word_bytes);
        const mof::ShardChannel::Slot slot = ch.submit(
            owner_shard.adjacencyByteOffset(node), bytes);
        *entry = slot;
        r.pending.push_back(
            PendingDraw{i, node, owner, slot, false});
        if (!ch.settled(slot)) {
            subscribe(owner, slot, root);
            ++r.outstanding;
        }
    }
    noteInFlight();
}

void
DistributedBackend::expandResolve(std::uint32_t root)
{
    RootState &r = roots_[root];
    const std::uint32_t hop = r.hop;
    const std::uint32_t fanout = plan_->fanouts[hop];
    const std::uint32_t parent_base =
        hop == 0 ? root : root * hopStride_[hop - 1];
    graph::NodeId *dst = batchOut_->frontier[hop].data() +
                         std::size_t(root) * hopStride_[hop];
    std::uint32_t *par = batchOut_->parent[hop].data() +
                         std::size_t(root) * hopStride_[hop];
    std::uint32_t &cur = r.counts[hop];
    const graph::GraphShard &home = store_->shard(self_);

    for (const PendingDraw &f : r.pending) {
        const std::uint32_t pv = parent_base + f.parent;
        if (f.cached) {
            // Cache hit: sample from the replicated adjacency —
            // byte-identical to the owner shard's slice, so the draw
            // matches what the remote read would produce.
            const std::uint32_t got = sampler_.sampleInto(
                std::span<const graph::NodeId>(
                    *batchCachedRefs_[f.slot].adjacency),
                fanout, r.rng, dst + cur, scratch_.sampler);
            std::fill_n(par + cur, got, pv);
            cur += got;
        } else if (!channels_[f.peer]->failed(f.slot)) {
            const graph::GraphShard &owner_shard =
                store_->shard(f.peer);
            const std::span<const graph::NodeId> nbrs =
                owner_shard.neighbors(f.node);
            const std::uint32_t got = sampler_.sampleInto(
                nbrs, fanout, r.rng, dst + cur, scratch_.sampler);
            std::fill_n(par + cur, got, pv);
            cur += got;
            // On-miss admission: the frame just paid for this
            // adjacency; let the tier decide if it beats a victim.
            // Offered once per batch — the memoized probe doubles as
            // the seen-set.
            if (cache_ != nullptr) {
                CachedVertex &cv = memoProbe(f.node);
                if (!cv.admit_tried) {
                    cv.admit_tried = true;
                    cache_->admitAdjacency(f.node, nbrs);
                }
            }
        } else {
            // Failed read: degrade gracefully — the fan-out is
            // answered by negative-resampling from the home shard,
            // so the hop keeps its shape and downstream layers never
            // see a hole.
            ++degradedBatch_;
            const auto &locals = home.localNodes();
            if (!locals.empty()) {
                for (std::uint32_t j = 0; j < fanout; ++j) {
                    dst[cur] = locals[r.rng.nextBounded(
                        locals.size())];
                    par[cur] = pv;
                    ++cur;
                }
            }
        }
    }
    r.pending.clear();
    ++r.hop;
}

void
DistributedBackend::submitAttrs(std::uint32_t root)
{
    // Attribute rows are positionally matched and carry no per-root
    // output — unlike structure reads, no draw depends on their
    // content. So roots never subscribe to attr slots: the stage just
    // streams each unique node's fetch into the staging buffers, and
    // failure counting plus cache admission ride on the channel
    // completion (batch-level, via PeerBook::is_attr). This keeps
    // the hot loop a single dedup probe for the ~90% duplicate
    // handles a skewed frontier produces.
    RootState &r = roots_[root];
    const graph::Partitioner &part = store_->partitioner();
    const std::uint64_t bytes_per_node =
        store_->attrs().bytesPerNode();

    const auto handle = [&](graph::NodeId node) {
        bool seen;
        attrDedup_.acquire(node, seen); // presence set; slot unused
        if (seen)
            return; // fetched (or classified) once per batch
        const graph::ServerId owner = part.serverOf(node);
        if (owner == self_) {
            localReads_.inc();
            return;
        }
        // Read-through: a replicated attribute row spares the fabric
        // one read.
        if (cache_ != nullptr) {
            ++batchCacheLookups_;
            if (memoProbe(node).has_attrs) {
                ++batchCacheHits_;
                attrCached_.inc();
                return;
            }
        }
        remoteReads_.inc();
        mof::ShardChannel &ch = *channels_[owner];
        const mof::ShardChannel::Slot slot =
            ch.submit(node * bytes_per_node,
                      static_cast<std::uint32_t>(bytes_per_node));
        PeerBook &book = books_[owner];
        if (book.is_attr.size() <= slot) {
            book.is_attr.resize(slot + 1, 0);
            book.node.resize(slot + 1, 0);
        }
        book.is_attr[slot] = 1;
        book.node[slot] = node;
        if (ch.settled(slot) && ch.failed(slot)) {
            // Settled synchronously (down peer / breaker inside this
            // submit) — the completion either never fires (born
            // failed) or fired before is_attr was set, so account
            // the failure here.
            ++attrFailedBatch_;
        }
    };

    handle(r.root);
    for (std::uint32_t h = 0; h < plan_->hops(); ++h) {
        const graph::NodeId *seg =
            batchOut_->frontier[h].data() +
            std::size_t(root) * hopStride_[h];
        for (std::uint32_t j = 0; j < r.counts[h]; ++j)
            handle(seg[j]);
    }
    noteInFlight();
}

void
DistributedBackend::sampleBarrier()
{
    // Lockstep round protocol (async_fabric = false), the engine the
    // continuation engine replaced: every root submits its current
    // hop, the staging buffers force-flush (one frame train per hop),
    // the event queue drains to the hop barrier, then every root draws.
    // Same per-root RNG streams and per-root code as the async path,
    // so the sampled output is byte-identical.
    pumping_ = true; // completions only decrement; no advancing
    const std::uint32_t hops = plan_->hops();
    for (std::uint32_t hop = 0; hop < hops; ++hop) {
        for (std::uint32_t i = 0; i < batchRoots_; ++i)
            expandSubmit(i);
        for (auto &ch : channels_)
            if (ch)
                ch->flushStaged();
        const Tick run_start = trace::wallNow();
        eq_.run();
        remoteWallPs_ += trace::wallNow() - run_start;
        runnable_.clear();
        for (std::uint32_t i = 0; i < batchRoots_; ++i) {
            lsd_assert(roots_[i].outstanding == 0,
                       "barrier hop ended with outstanding reads");
            expandResolve(i);
        }
    }
    if (plan_->fetch_attributes) {
        for (std::uint32_t i = 0; i < batchRoots_; ++i)
            submitAttrs(i);
        for (auto &ch : channels_)
            if (ch)
                ch->flushStaged();
        const Tick run_start = trace::wallNow();
        eq_.run();
        remoteWallPs_ += trace::wallNow() - run_start;
        runnable_.clear();
        for (std::uint32_t i = 0; i < batchRoots_; ++i)
            lsd_assert(roots_[i].outstanding == 0,
                       "attr stage ended with outstanding reads");
    }
    pumping_ = false;
}

void
DistributedBackend::assemble(const sampling::SamplePlan &plan,
                             sampling::SampleResult &out)
{
    // Roots wrote at fixed worst-case strides; squeeze the slack out
    // in place. A batch where every root filled its full fan-out
    // (degree >= fanout everywhere, nothing degraded) is already
    // contiguous: the loop below only sums counts and resizes. When
    // a hop did leave gaps, each root's segment slides left with one
    // memmove, and the NEXT hop's parent indices — written against
    // the strided layout — shift by a per-root constant.
    const std::uint32_t hops = plan.hops();
    std::vector<std::uint32_t> &shift = assemblePrev_;
    std::vector<std::uint32_t> &off = assembleCur_;
    bool prev_shifted = false;
    off.resize(batchRoots_);
    for (std::uint32_t h = 0; h < hops; ++h) {
        const std::uint32_t stride = hopStride_[h];
        std::size_t total = 0;
        bool shifted = false;
        for (std::uint32_t r = 0; r < batchRoots_; ++r) {
            off[r] = static_cast<std::uint32_t>(total);
            if (off[r] != std::size_t(r) * stride)
                shifted = true;
            total += roots_[r].counts[h];
        }
        std::vector<graph::NodeId> &fr = out.frontier[h];
        std::vector<std::uint32_t> &pa = out.parent[h];
        if (shifted || prev_shifted) {
            for (std::uint32_t r = 0; r < batchRoots_; ++r) {
                const std::uint32_t n = roots_[r].counts[h];
                if (n == 0)
                    continue;
                const std::size_t src = std::size_t(r) * stride;
                const std::size_t dst = off[r];
                if (prev_shifted) {
                    // Remap while sliding: all of this root's parents
                    // point into its own previous-hop segment, so the
                    // correction is one constant.
                    const std::uint32_t s = shift[r];
                    for (std::uint32_t j = 0; j < n; ++j)
                        pa[dst + j] = pa[src + j] - s;
                } else if (dst != src) {
                    std::memmove(pa.data() + dst, pa.data() + src,
                                 n * sizeof(std::uint32_t));
                }
                if (dst != src)
                    std::memmove(fr.data() + dst, fr.data() + src,
                                 n * sizeof(graph::NodeId));
            }
        }
        fr.resize(total);
        pa.resize(total);
        if (h + 1 < hops) {
            prev_shifted = shifted;
            if (shifted) {
                shift.resize(batchRoots_);
                for (std::uint32_t r = 0; r < batchRoots_; ++r)
                    shift[r] = static_cast<std::uint32_t>(
                        std::size_t(r) * stride - off[r]);
            }
        }
    }
}

void
DistributedBackend::emitStageTrace(const char *stage,
                                   std::size_t frontier,
                                   std::uint64_t degraded,
                                   Tick wall_start)
{
    if (degraded != 0)
        trace::FlightRecorder::instance().recordNow(
            "dist.degraded", batchCtx_.trace_id, batchCtx_.span_id,
            static_cast<double>(degraded),
            static_cast<double>(frontier));
    if (!trace::Tracer::enabled())
        return;
    auto &tracer = trace::Tracer::instance();
    std::string args;
    if (batchCtx_.valid())
        args = batchCtx_.argsJson() + ",";
    args += "\"frontier\":" + std::to_string(frontier) +
            ",\"degraded\":" + std::to_string(degraded);
    const Tick now = trace::wallNow();
    tracer.complete(
        trace::wall_pid,
        tracer.track(trace::wall_pid,
                     "mof.remote.shard" + std::to_string(self_)),
        stage, wall_start, now - wall_start, args);
}

Status
DistributedBackend::sampleInto(const sampling::SamplePlan &plan,
                               const SampleOptions &options, Rng &rng,
                               sampling::SampleResult &out)
{
    const graph::CsrGraph &g = store_->graph();
    const graph::GraphShard &home = store_->shard(self_);
    batches_.inc();
    trace_ = options.trace;
    batchCtx_ = trace_.valid() ? trace_.child() : trace::TraceContext{};
    plan_ = &plan;
    remoteWallPs_ = 0;
    batchCacheLookups_ = 0;
    batchCacheHits_ = 0;
    degradedBatch_ = 0;
    attrFailedBatch_ = 0;
    inflightPeak_ = 0;
    stallTripped_ = false;
    if (cache_ != nullptr) {
        ++memoCurrentEpoch_;
        if (memoCurrentEpoch_ == 0) { // u32 wrap: stale stamps linger
            std::fill(memoEpoch_.begin(), memoEpoch_.end(), 0);
            memoCurrentEpoch_ = 1;
        }
        batchCachedRefs_.clear();
    }

    std::uint64_t hedge_base = 0;
    for (const auto &ch : channels_)
        if (ch)
            hedge_base += ch->hedges();

    // Roots come from the caller's Rng — the same sequence the round
    // engine drew, so root selection is config-stable.
    out.roots.resize(plan.batch_size);
    if (options.local_roots && home.numLocalNodes() > 0) {
        const auto &locals = home.localNodes();
        for (graph::NodeId &r : out.roots)
            r = locals[rng.nextBounded(locals.size())];
    } else {
        for (graph::NodeId &r : out.roots)
            r = rng.nextBounded(g.numNodes());
    }
    // One extra draw forms the batch nonce every root's private RNG
    // stream derives from. Each root consumes only its own stream, in
    // root-local discovery order — the sampled content is therefore
    // independent of completion scheduling, which is what makes the
    // async and barrier fabrics byte-identical.
    const std::uint64_t nonce = rng();

    const std::uint32_t hops = plan.hops();
    batchRoots_ = static_cast<std::uint32_t>(out.roots.size());
    batchOut_ = &out;
    // Strided result layout: hop h grants every root a worst-case
    // segment of prod(fanouts[0..h]) slots, so a root knows its write
    // offsets the moment it becomes runnable — no coordination with
    // the other roots' (possibly unfinished) hops. In the common
    // full-fanout batch the strided layout IS the final layout and
    // assemble() has nothing to move.
    hopStride_.resize(hops);
    {
        std::uint64_t stride = 1;
        for (std::uint32_t h = 0; h < hops; ++h) {
            stride *= plan.fanouts[h];
            lsd_assert(stride * batchRoots_ <= 0xFFFFFFFFull,
                       "hop arena exceeds 32-bit parent indexing");
            hopStride_[h] = static_cast<std::uint32_t>(stride);
        }
    }
    out.frontier.resize(hops);
    out.parent.resize(hops);
    for (std::uint32_t h = 0; h < hops; ++h) {
        const std::size_t arena =
            std::size_t(batchRoots_) * hopStride_[h];
        out.frontier[h].resize(arena);
        out.parent[h].resize(arena);
    }
    if (roots_.size() < batchRoots_)
        roots_.resize(batchRoots_);
    for (std::uint32_t i = 0; i < batchRoots_; ++i) {
        RootState &r = roots_[i];
        r.rng = Rng(nonce ^ ((i + 1) * 0x9E3779B97F4A7C15ull));
        r.root = out.roots[i];
        r.hop = 0;
        r.outstanding = 0;
        r.phase = Phase::Expand;
        r.done = false;
        r.pending.clear();
        r.counts.assign(hops, 0);
    }
    structDedup_.begin(std::min<std::size_t>(plan.maxNodesPerBatch(),
                                             g.numNodes()));
    attrDedup_.begin(std::min<std::size_t>(plan.maxNodesPerBatch(),
                                           g.numNodes()));
    for (PeerBook &book : books_) {
        for (auto &w : book.waiters)
            w.clear();
        book.is_attr.clear();
        book.node.clear();
    }
    for (auto &ch : channels_) {
        if (!ch)
            continue;
        ch->setTrace(batchCtx_);
        ch->beginBatch();
    }

    const Tick wall_start = trace::wallNow();
    if (asyncFabric_) {
        liveRoots_ = batchRoots_;
        for (std::uint32_t i = 0; i < batchRoots_; ++i)
            runnable_.push_back(i);
        pump();
        // Every parked root holds an unsettled slot, and every
        // unsettled slot has a pending staging-age or deadline event
        // — the heap cannot drain while work remains, so one run()
        // completes the batch.
        const Tick run_start = trace::wallNow();
        eq_.run();
        remoteWallPs_ += trace::wallNow() - run_start;
        lsd_assert(runnable_.empty(), "runnable roots after drain");
        lsd_assert(liveRoots_ == 0,
                   "async batch ended with live roots");
    } else {
        sampleBarrier();
    }
    for (auto &ch : channels_)
        if (ch)
            ch->endBatch();

    assemble(plan, out);
    std::size_t total_frontier = 0;
    for (const auto &hop : out.frontier)
        total_frontier += hop.size();
    const std::uint64_t degraded_total =
        degradedBatch_ + attrFailedBatch_;
    emitStageTrace(asyncFabric_ ? "batch.async" : "batch.barrier",
                   total_frontier, degraded_total, wall_start);

    if (options.telemetry != nullptr) {
        options.telemetry->remote_us +=
            static_cast<double>(remoteWallPs_) / 1e6;
        options.telemetry->cache_lookups += batchCacheLookups_;
        options.telemetry->cache_hits += batchCacheHits_;
        std::uint64_t hedge_now = 0;
        for (const auto &ch : channels_)
            if (ch)
                hedge_now += ch->hedges();
        options.telemetry->hedges += hedge_now - hedge_base;
        options.telemetry->inflight_peak = std::max(
            options.telemetry->inflight_peak, inflightPeak_);
    }
    degraded_.inc(degraded_total);
    if (degraded_total != 0)
        return Status(StatusCode::Degraded,
                      std::to_string(degraded_total) +
                          " remote reads fell back to shard " +
                          std::to_string(self_));
    return StatusCode::Ok;
}

} // namespace framework
} // namespace lsdgnn
