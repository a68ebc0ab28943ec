#include "system.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/sampler.hh"

namespace beacon::rack
{

namespace
{

/** Tenant-id stride between hosts (max tenants per host). */
constexpr unsigned tenant_stride = 32;

/** Migration / evacuation transfer chunk. */
constexpr std::uint64_t migration_chunk = 4096;

std::uint64_t
chunkCount(Bytes bytes)
{
    return (bytes.value() + migration_chunk - 1) / migration_chunk;
}

} // namespace

SystemParams
RackSystem::machineParams(const RackParams &p)
{
    SystemParams mp = p.base;
    BEACON_CHECK(!mp.ddr_fabric,
                 "rack machines need the CXL pool fabric");
    BEACON_CHECK(p.expansion_switches >= 1,
                 "rack machines need at least one expansion switch");
    const unsigned base_groups = mp.num_groups;
    mp.num_groups += p.expansion_switches;
    for (unsigned sw = base_groups; sw < mp.num_groups; ++sw) {
        for (unsigned d = 0; d < mp.dimms_per_group; ++d)
            mp.rack_reserved_dimms.push_back(sw * mp.dimms_per_group +
                                             d);
    }
    return mp;
}

RackSystem::RackSystem(const RackParams &params)
    : p(params), mp(machineParams(params)),
      sys(std::make_unique<NdpSystem>(mp))
{
    BEACON_CHECK(p.hosts >= 1 && p.hosts <= 64,
                 "rack supports 1..64 hosts, got ", p.hosts);
    fabric = &sys->poolFabric();
    fw = &sys->memoryFramework();
    StatRegistry &stats = sys->statsMutable();
    EventQueue &eq = sys->eventQueue();

    // Host 0 is the pool's built-in root-port host; the others enter
    // the fabric at the same root and only differ in identity.
    for (unsigned h = 1; h < p.hosts; ++h)
        fabric->registerNode(NodeId::hostNode(h));

    tree_ = std::make_unique<RackTree>(
        eq, stats,
        RackTreeParams{p.hosts, p.switch_levels, p.rack_link});

    const unsigned base_groups = p.base.num_groups;
    for (unsigned sw = base_groups; sw < mp.num_groups; ++sw) {
        for (unsigned d = 0; d < mp.dimms_per_group; ++d)
            expansion_.push_back(sw * mp.dimms_per_group + d);
    }
    for (unsigned i = 0; i < unsigned(expansion_.size()); ++i) {
        online_.insert(expansion_[i]);
        binding_[expansion_[i]] = i % p.hosts;
    }

    const auto &inventory = fw->dimms();
    for (unsigned d : expansion_) {
        MappingPolicy mpol;
        mpol.chip_group = inventory.at(d).geom.chips_per_rank;
        mpol.granule_bytes = p.interleave_granularity;
        mpol.row_major = false;
        mpol.base_row = 0;
        rack_mappers_.emplace(
            d, DimmAddressMapper(inventory.at(d).geom, mpol));
    }

    decoders_.resize(p.hosts);
    hdm_cursor_.assign(p.hosts, 0);
    rebuildDecoders();
    rebalanceHdmReservations();

    seg_cursor_.assign(
        p.hosts, std::vector<std::uint64_t>(p.segments.size(), 0));
    seg_ops_.assign(p.hosts, 0);
    for (std::size_t i = 0; i < p.segments.size(); ++i) {
        const SegmentParams &sp = p.segments[i];
        BEACON_CHECK(online_.count(sp.owner_dimm) != 0,
                     "segment '", sp.name,
                     "' owner is not an online expansion DIMM");
        segments_.push_back(
            std::make_unique<SegmentCoherence>(sp, p.hosts));
        std::string err;
        BEACON_CHECK(fw->reserveOn(segApp(sp), sp.owner_dimm,
                                   sp.bytes, &err),
                     "segment reservation failed: ", err);
        c_bi_.push_back(&stats.counter(
            "rack.seg" + std::to_string(i) + ".biFlits"));
    }

    for (unsigned h = 0; h < p.hosts; ++h) {
        OrchestratorParams op;
        op.scheduler = p.scheduler;
        op.seed = p.seed;
        op.tenant_id_base = h * tenant_stride;
        op.ingress = [this, h](TenantId tenant, std::uint64_t job,
                               std::function<void()> cont) {
            beginIngress(h, tenant, job, std::move(cont));
        };
        hosts_.push_back(
            std::make_unique<PoolOrchestrator>(*sys, op));
    }

    c_ingress = &stats.counter("rack.ingressBytes");
    c_hits = &stats.counter("rack.cacheHits");
    c_misses = &stats.counter("rack.cacheMisses");
    c_inval = &stats.counter("rack.invalidations");
    c_migrated = &stats.counter("rack.migratedBytes");
    c_hot_adds = &stats.counter("rack.hotAdds");
    c_hot_removes = &stats.counter("rack.hotRemoves");
    c_rebinds = &stats.counter("rack.rebinds");
}

RackSystem::~RackSystem() = default;

std::string
RackSystem::hdmApp(unsigned host) const
{
    return "host" + std::to_string(host) + ".hdm";
}

std::string
RackSystem::segApp(const SegmentParams &seg) const
{
    return "rack.seg." + seg.name;
}

void
RackSystem::rebuildDecoders()
{
    for (unsigned h = 0; h < p.hosts; ++h) {
        std::vector<unsigned> targets;
        for (unsigned d : online_) { // std::set: ascending, stable
            if (binding_.at(d) == h)
                targets.push_back(d);
        }
        // A host whose virtual hierarchy lost every expander falls
        // back to decoding across the whole online set (its DPA
        // window stays disjoint, so nothing aliases).
        if (targets.empty())
            targets.assign(online_.begin(), online_.end());
        BEACON_CHECK(!targets.empty(), "host ", h,
                     " has no online expansion DIMM to decode onto");
        const unsigned ways = std::min(
            p.interleave_ways, unsigned(targets.size()));
        targets.resize(ways);
        const std::uint64_t unit =
            std::uint64_t(p.interleave_granularity) * ways;
        const std::uint64_t size =
            p.hdm_bytes_per_host.value() / unit * unit;
        BEACON_CHECK(size > 0,
                     "hdm_bytes_per_host smaller than one ",
                     ways, "-way interleave unit");
        HdmRange range;
        range.base =
            std::uint64_t(h) * p.hdm_bytes_per_host.value();
        range.size = Bytes{size};
        // DPA windows inherit the hosts' HPA disjointness, so two
        // hosts sharing a target never collide on (target, dpa).
        range.dpa_base = range.base;
        range.ways = ways;
        range.granularity = Bytes{p.interleave_granularity};
        range.targets = targets;
        decoders_[h].clear();
        decoders_[h].addRange(range);
        if (hdm_cursor_[h] >= size)
            hdm_cursor_[h] = 0;
    }
}

void
RackSystem::rebalanceHdmReservations()
{
    for (unsigned h = 0; h < p.hosts; ++h) {
        const std::string app = hdmApp(h);
        for (unsigned d : expansion_)
            fw->releaseOn(app, d);
        const HdmRange &range = decoders_[h].range(0);
        const Bytes share{range.size.value() / range.ways};
        for (unsigned target : range.targets) {
            std::string err;
            BEACON_CHECK(fw->reserveOn(app, target, share, &err),
                         "HDM reservation failed for host ", h,
                         ": ", err);
        }
    }
}

ResolvedAccess
RackSystem::rackAccess(unsigned dimm, std::uint64_t dpa,
                       Bytes bytes) const
{
    const DimmAddressMapper &mapper = rack_mappers_.at(dimm);
    ResolvedAccess acc;
    acc.dimm_index = dimm;
    acc.node = sys->dimmNodeId(dimm);
    acc.coord = mapper.mapGranule(dpa / p.interleave_granularity);
    acc.bursts = mapper.burstsFor(std::uint32_t(bytes.value()));
    acc.bytes = bytes;
    return acc;
}

ResolvedAccess
RackSystem::segAccess(std::size_t seg, std::uint64_t block) const
{
    const SegmentCoherence &sc = *segments_[seg];
    // Segments occupy private DPA regions far above every per-host
    // HDM window (one 4 GiB region per segment; the mapper wraps
    // modulo DIMM capacity like every rack access).
    const std::uint64_t dpa =
        (std::uint64_t(seg + 1) << 32) +
        block * sc.params().block_bytes;
    return rackAccess(sc.owner(), dpa,
                      Bytes{sc.params().block_bytes});
}

TenantId
RackSystem::addTenant(unsigned host, const TenantSpec &spec)
{
    BEACON_ASSERT(host < p.hosts, "bad rack host ", host);
    BEACON_CHECK(hosts_[host]->tenantIds().size() < tenant_stride,
                 "host ", host, " exceeded ", tenant_stride,
                 " tenants (the per-host tenant-id stride)");
    return hosts_[host]->addTenant(spec);
}

// ------------------------------------------------------------------
// Ingress pipeline
// ------------------------------------------------------------------

void
RackSystem::beginIngress(unsigned host, TenantId tenant,
                         std::uint64_t job,
                         std::function<void()> cont)
{
    if (paused_) {
        // Hot-plug in progress: replayed in arrival order on resume.
        paused_ingress_.push_back(
            [this, host, tenant, job,
             cont = std::move(cont)]() mutable {
                beginIngress(host, tenant, job, std::move(cont));
            });
        return;
    }
    ++rack_inflight_;
    auto st = std::make_shared<IngressState>();
    st->host = host;
    st->tenant = tenant;
    st->job = job;
    st->cont = std::move(cont);
    if (p.ingress_bytes_per_job.value() == 0) {
        segmentPhase(st);
        return;
    }
    tree_->traverse(host, p.ingress_bytes_per_job,
                    [this, st](Tick) { scatterHdm(st); });
}

void
RackSystem::scatterHdm(const std::shared_ptr<IngressState> &st)
{
    const HdmDecoder &dec = decoders_[st->host];
    const HdmRange &range = dec.range(0);
    const std::uint64_t span = std::min(
        p.ingress_bytes_per_job.value(), range.size.value());
    if (hdm_cursor_[st->host] + span > range.size.value())
        hdm_cursor_[st->host] = 0;
    const std::uint64_t hpa = range.base + hdm_cursor_[st->host];
    hdm_cursor_[st->host] += span;

    dec.forEachGranule(
        hpa, Bytes{span},
        [this, st](const HdmDecoded &piece, Bytes piece_bytes) {
            ++st->pending;
            // Issue-time accounting.
            sys->accountDramBytes(st->tenant, piece_bytes);
            *c_ingress += double(piece_bytes.value());
            const unsigned dimm = piece.target;
            const ResolvedAccess acc =
                rackAccess(dimm, piece.dpa, piece_bytes);
            fabric->send(
                NodeId::hostNode(st->host), sys->dimmNodeId(dimm),
                piece_bytes, false, st->tenant, st->job,
                [this, st, dimm, acc](Tick) {
                    // At the expander: commit, then ack the host.
                    sys->dimmDram(
                        dimm, acc, true, [this, st, dimm](Tick) {
                            fabric->send(
                                sys->dimmNodeId(dimm),
                                NodeId::hostNode(st->host),
                                Bytes{8}, false, st->tenant,
                                st->job,
                                [this, st](Tick) {
                                    hdmPieceDone(st);
                                });
                        }, st->job);
                });
        });
    BEACON_ASSERT(st->pending > 0,
                  "HDM scatter produced no pieces");
}

void
RackSystem::hdmPieceDone(const std::shared_ptr<IngressState> &st)
{
    BEACON_ASSERT(st->pending > 0, "stray HDM scatter ack");
    if (--st->pending == 0)
        segmentPhase(st);
}

void
RackSystem::segmentPhase(const std::shared_ptr<IngressState> &st)
{
    if (st->seg >= segments_.size() ||
        p.segment_read_bytes_per_job.value() == 0) {
        finishIngress(st);
        return;
    }
    const std::size_t seg = st->seg++;
    SegmentCoherence &sc = *segments_[seg];
    const std::uint32_t block_bytes = sc.params().block_bytes;
    const std::uint64_t seq = seg_ops_[st->host]++;
    const bool is_write =
        p.segment_write_every != 0 &&
        (seq + 1) % p.segment_write_every == 0;
    const std::uint64_t blocks =
        is_write ? 1
                 : std::max<std::uint64_t>(
                       1, (p.segment_read_bytes_per_job.value() +
                           block_bytes - 1) /
                              block_bytes);
    // Jobs revisit a hot working set of the segment (the index head
    // every job consults) rather than streaming the whole segment
    // once — the re-reads are what give the host caches hits and the
    // writes someone to back-invalidate.
    const std::uint64_t working_set =
        std::min<std::uint64_t>(sc.numBlocks(), 16);
    std::uint64_t &cursor = seg_cursor_[st->host][seg];
    const std::uint64_t first = cursor;
    cursor = (cursor + blocks) % working_set;
    st->pending = unsigned(blocks);
    for (std::uint64_t i = 0; i < blocks; ++i) {
        const std::uint64_t block = (first + i) % working_set;
        coherentAccess(st->host, st->tenant, seg, block, is_write,
                       [this, st] {
                           if (--st->pending == 0)
                               segmentPhase(st);
                       });
    }
}

void
RackSystem::finishIngress(const std::shared_ptr<IngressState> &st)
{
    BEACON_ASSERT(rack_inflight_ > 0, "unbalanced rack ingress");
    --rack_inflight_;
    st->cont();
    tryExecuteOp(); // no-op unless a hot-plug op is drain-waiting
}

// ------------------------------------------------------------------
// Coherence protocol (see docs/rack_scale.md for the message table)
// ------------------------------------------------------------------

void
RackSystem::coherentAccess(unsigned host, TenantId tenant,
                           std::size_t seg, std::uint64_t block,
                           bool is_write, std::function<void()> done)
{
    SegmentCoherence &sc = *segments_[seg];
    const bool hit = is_write ? sc.modifiedOn(host, block)
                              : sc.cachedOn(host, block);
    if (hit) {
        ++*c_hits;
        done();
        return;
    }
    ++*c_misses;
    ++txn_inflight_;
    // The block's DRAM touch is accounted at issue time; the
    // physical access runs later at the owner.
    sys->accountDramBytes(tenant, Bytes{sc.params().block_bytes});
    fabric->send(
        NodeId::hostNode(host), sys->dimmNodeId(sc.owner()),
        Bytes{16}, false, tenant, 0,
        [this, host, tenant, seg, block, is_write,
         done = std::move(done)](Tick) mutable {
            ownerHandle(host, tenant, seg, block, is_write,
                        std::move(done));
        });
}

void
RackSystem::ownerHandle(unsigned host, TenantId tenant,
                        std::size_t seg, std::uint64_t block,
                        bool is_write, std::function<void()> done)
{
    SegmentCoherence &sc = *segments_[seg];
    if (sc.busy(block)) {
        sc.queueTxn(block,
                    [this, host, tenant, seg, block, is_write,
                     done = std::move(done)]() mutable {
                        startTxn(host, tenant, seg, block, is_write,
                                 std::move(done));
                    });
        return;
    }
    startTxn(host, tenant, seg, block, is_write, std::move(done));
}

void
RackSystem::startTxn(unsigned host, TenantId tenant, std::size_t seg,
                     std::uint64_t block, bool is_write,
                     std::function<void()> done)
{
    // At the owner: claim the block and update the directory (both
    // live with the owning expander), then fetch the block from its
    // DRAM. Every fabric message of the transaction is issued from
    // the DRAM-completion callback, like the NDP remote-access
    // paths.
    SegmentCoherence &sc = *segments_[seg];
    sc.setBusy(block);
    const std::uint32_t block_bytes = sc.params().block_bytes;

    if (!is_write) {
        const auto actions = sc.directoryRead(host, block);
        sys->dimmDram(
            sc.owner(), segAccess(seg, block), false,
            [this, host, tenant, seg, block, block_bytes, actions,
             done = std::move(done)](Tick) mutable {
                // Clean copy -> respond; dirty elsewhere ->
                // BI-snoop the modifier, commit its writeback, then
                // respond with the fresh data.
                if (!actions.writeback) {
                    respond(host, tenant, seg, block, false,
                            std::move(done));
                    return;
                }
                ++*c_bi_[seg];
                const unsigned victim = actions.writeback_host;
                fabric->send(
                    sys->dimmNodeId(segments_[seg]->owner()),
                    NodeId::hostNode(victim), Bytes{block_bytes},
                    false, tenant, 0,
                    [this, host, tenant, seg, block, victim,
                     block_bytes, done = std::move(done)](Tick) mutable {
                        // At the modifier: drop the stale copy, send the
                        // dirty data back.
                        segments_[seg]->uncache(victim, block);
                        ++*c_inval;
                        sys->accountDramBytes(tenant,
                                              Bytes{block_bytes});
                        fabric->send(
                            NodeId::hostNode(victim),
                            sys->dimmNodeId(segments_[seg]->owner()),
                            Bytes{block_bytes}, false, tenant, 0,
                            [this, host, tenant, seg, block,
                             done = std::move(done)](Tick) mutable {
                                // At the owner: commit the writeback.
                                sys->dimmDram(
                                    segments_[seg]->owner(),
                                    segAccess(seg, block), true,
                                    [this, host, tenant, seg, block,
                                     done = std::move(done)](
                                        Tick) mutable {
                                        respond(host, tenant, seg,
                                                block, false,
                                                std::move(done));
                                    });
                            });
                    });
            });
        return;
    }

    const auto actions = sc.directoryWrite(host, block);
    // No stale copy: the fetch doubles as the write commit. With
    // sharers, commit after the last invalidation ack instead.
    const bool exclusive = actions.invalidate.empty();
    sys->dimmDram(
        sc.owner(), segAccess(seg, block), exclusive,
        [this, host, tenant, seg, block, block_bytes, actions,
         exclusive, done = std::move(done)](Tick) mutable {
            if (exclusive) {
                respond(host, tenant, seg, block, true,
                        std::move(done));
                return;
            }
            // BI-snoop every stale copy; the write proceeds once all
            // acks are in. A dirty victim's data merges into the
            // incoming write (accounted, not separately committed).
            auto acks = std::make_shared<unsigned>(
                unsigned(actions.invalidate.size()));
            for (const unsigned victim : actions.invalidate) {
                ++*c_bi_[seg];
                const bool dirty = actions.writeback &&
                                   victim == actions.writeback_host;
                fabric->send(
                    sys->dimmNodeId(segments_[seg]->owner()),
                    NodeId::hostNode(victim), Bytes{block_bytes},
                    false, tenant, 0,
                    [this, host, tenant, seg, block, victim, dirty,
                     block_bytes, acks, done](Tick) {
                        // At the sharer: invalidate, then ack the owner.
                        segments_[seg]->uncache(victim, block);
                        ++*c_inval;
                        if (dirty) {
                            sys->accountDramBytes(
                                tenant, Bytes{block_bytes});
                        }
                        fabric->send(
                            NodeId::hostNode(victim),
                            sys->dimmNodeId(segments_[seg]->owner()),
                            Bytes{8}, false, tenant, 0,
                            [this, host, tenant, seg, block, acks,
                             done](Tick) {
                                // At the owner: the last ack commits
                                // the write, then responds.
                                if (--*acks != 0)
                                    return;
                                sys->dimmDram(
                                    segments_[seg]->owner(),
                                    segAccess(seg, block), true,
                                    [this, host, tenant, seg, block,
                                     done](Tick) {
                                        respond(host, tenant, seg,
                                                block, true, done);
                                    });
                            });
                    });
            }
        });
}

void
RackSystem::respond(unsigned host, TenantId tenant, std::size_t seg,
                    std::uint64_t block, bool is_write,
                    std::function<void()> done)
{
    // Data (read) / ack (write) flit back to the host.
    SegmentCoherence &sc = *segments_[seg];
    const Bytes resp =
        is_write ? Bytes{8} : Bytes{sc.params().block_bytes};
    fabric->send(
        sys->dimmNodeId(sc.owner()), NodeId::hostNode(host), resp,
        false, tenant, 0,
        [this, host, seg, block, is_write,
         done = std::move(done)](Tick) mutable {
            // At the host: install and retire. The install-ack goes out
            // FIRST: done() may complete the drain a hot-plug op is
            // waiting on, and the op's directory-clear kick must
            // trail the ack through the (FIFO) fabric path so the
            // directory only resets after busy clears.
            SegmentCoherence &sc = *segments_[seg];
            if (is_write)
                sc.cacheModified(host, block);
            else
                sc.cacheShared(host, block);
            fabric->send(
                NodeId::hostNode(host), sys->dimmNodeId(sc.owner()),
                Bytes{8}, false, TenantId{}, 0,
                [this, seg, block](Tick) {
                    // At the owner: unbusy, start the next queued
                    // transaction.
                    SegmentCoherence &sc = *segments_[seg];
                    sc.clearBusy(block);
                    if (auto next = sc.popTxn(block))
                        next();
                });
            BEACON_ASSERT(txn_inflight_ > 0,
                          "stray txn retirement");
            --txn_inflight_;
            done();
            tryExecuteOp();
        });
}

// ------------------------------------------------------------------
// Hot-plug state machine
// ------------------------------------------------------------------

void
RackSystem::scheduleHotRemove(Tick at, unsigned dimm)
{
    BEACON_ASSERT(!ran_, "hot-plug must be scheduled before run()");
    sys->eventQueue().schedule(
        at,
        [this, dimm] {
            enqueueOp({RackOp::Kind::HotRemove, dimm, 0});
        },
        EventCat::Rack);
}

void
RackSystem::scheduleHotAdd(Tick at, unsigned dimm)
{
    BEACON_ASSERT(!ran_, "hot-plug must be scheduled before run()");
    sys->eventQueue().schedule(
        at,
        [this, dimm] { enqueueOp({RackOp::Kind::HotAdd, dimm, 0}); },
        EventCat::Rack);
}

void
RackSystem::scheduleRebind(Tick at, unsigned dimm,
                           unsigned new_host)
{
    BEACON_ASSERT(!ran_, "hot-plug must be scheduled before run()");
    sys->eventQueue().schedule(
        at,
        [this, dimm, new_host] {
            enqueueOp({RackOp::Kind::Rebind, dimm, new_host});
        },
        EventCat::Rack);
}

void
RackSystem::enqueueOp(const RackOp &op)
{
    op_queue_.push_back(op);
    pumpOps();
}

void
RackSystem::pumpOps()
{
    if (op_active_ || op_queue_.empty())
        return;
    op_active_ = true;
    paused_ = true;
    tryExecuteOp();
}

void
RackSystem::tryExecuteOp()
{
    // Only fires the op while one is drain-waiting; finishIngress
    // and transaction retirement call this unconditionally, and may
    // do so reentrantly (the dispatch below can drain the last unit
    // of work, whose completion calls back in here) — op_running_
    // keeps a migrating op from being overtaken by the next in queue.
    if (!op_active_ || op_running_ || !paused_ ||
        rack_inflight_ > 0 || txn_inflight_ > 0 || op_queue_.empty())
        return;
    op_running_ = true;
    const RackOp op = op_queue_.front();
    op_queue_.pop_front();
    switch (op.kind) {
      case RackOp::Kind::HotAdd:
        executeHotAdd(op);
        break;
      case RackOp::Kind::HotRemove:
        executeHotRemove(op);
        break;
      case RackOp::Kind::Rebind:
        executeRebind(op);
        break;
    }
}

void
RackSystem::executeHotAdd(const RackOp &op)
{
    const unsigned d = op.dimm;
    BEACON_CHECK(std::find(expansion_.begin(), expansion_.end(),
                           d) != expansion_.end(),
                 "hot-add of non-expansion DIMM index ", d);
    BEACON_CHECK(online_.count(d) == 0,
                 "hot-add of already-online expander ", d);
    const NodeId node = sys->dimmNodeId(d);
    if (!fabric->isRegistered(node))
        fabric->registerNode(node);
    online_.insert(d);
    // Bind to the host with the fewest expanders (lowest host wins
    // ties — deterministic).
    std::vector<unsigned> counts(p.hosts, 0);
    for (const auto &[dimm, h] : binding_)
        ++counts[h];
    unsigned best = 0;
    for (unsigned h = 1; h < p.hosts; ++h) {
        if (counts[h] < counts[best])
            best = h;
    }
    binding_[d] = best;
    rebuildDecoders();
    rebalanceHdmReservations();
    ++*c_hot_adds;
    completeOp();
}

void
RackSystem::executeHotRemove(const RackOp &op)
{
    const unsigned d = op.dimm;
    BEACON_CHECK(online_.count(d) != 0,
                 "hot-remove of offline expander DIMM index ", d);
    BEACON_CHECK(online_.size() > 1,
                 "cannot hot-remove the last online expander");
    op_pending_acks_ = 0;
    op_done_ = [this, d] {
        fabric->unregisterNode(sys->dimmNodeId(d));
        online_.erase(d);
        binding_.erase(d);
        rebuildDecoders();
        rebalanceHdmReservations();
        ++*c_hot_removes;
        completeOp();
    };

    // 1. Re-home every segment the leaving expander owns: rewrite
    // the capacity bookkeeping, conservatively BI-invalidate every
    // host mapping (the copies re-fetch from the new owner), clear
    // the old directory at the old owner, and stream the data over.
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        SegmentCoherence &sc = *segments_[i];
        if (sc.owner() != d)
            continue;
        unsigned new_owner = 0;
        bool found = false;
        std::uint64_t best_free = 0;
        for (const unsigned c : online_) {
            if (c == d)
                continue;
            const std::uint64_t free = fw->freeBytes(c).value();
            if (!found || free > best_free) {
                found = true;
                best_free = free;
                new_owner = c;
            }
        }
        BEACON_CHECK(found, "no online expander can adopt segment '",
                     sc.params().name, "'");
        fw->releaseOn(segApp(sc.params()), d);
        std::string err;
        BEACON_CHECK(fw->reserveOn(segApp(sc.params()), new_owner,
                                   sc.params().bytes, &err),
                     "segment re-home failed: ", err);
        *c_inval += double(sc.uncacheAll());
        sc.setOwner(new_owner);
        op_pending_acks_ += chunkCount(sc.params().bytes);
        fabric->send(
            NodeId::host(), sys->dimmNodeId(d), Bytes{16}, false,
            TenantId{}, 0, [this, i, d, new_owner](Tick) {
                // At the old owner (quiescent: drained + paused).
                segments_[i]->directoryClear();
                chunkTransfer(d, new_owner,
                              segments_[i]->params().bytes);
            });
    }

    // 2. Evacuate the HDM regions still resident on the expander
    // onto the remaining online expanders, then stream each move.
    // The framework's interim usage tables are superseded by the
    // reservation rebalance in op_done_; evacuate() decides the
    // migration traffic pattern.
    std::vector<unsigned> candidates;
    for (const unsigned c : online_) {
        if (c != d)
            candidates.push_back(c);
    }
    std::vector<RegionMove> moves;
    std::string err;
    BEACON_CHECK(fw->evacuate(d, &moves, &err, &candidates),
                 "hot-remove evacuation failed: ", err);
    for (const RegionMove &mv : moves) {
        op_pending_acks_ += chunkCount(mv.bytes);
        fabric->send(
            NodeId::host(), sys->dimmNodeId(d), Bytes{16}, false,
            TenantId{}, 0, [this, mv](Tick) {
                chunkTransfer(mv.from, mv.to, mv.bytes);
            });
    }

    if (op_pending_acks_ == 0) {
        auto finish = std::move(op_done_);
        op_done_ = nullptr;
        finish();
    }
}

void
RackSystem::executeRebind(const RackOp &op)
{
    const unsigned d = op.dimm;
    BEACON_CHECK(online_.count(d) != 0,
                 "VCS rebind of offline expander ", d);
    BEACON_CHECK(op.new_host < p.hosts, "VCS rebind to bad host ",
                 op.new_host);
    const unsigned old_host = binding_.at(d);
    if (old_host == op.new_host) {
        ++*c_rebinds;
        completeOp();
        return;
    }
    // Resident bytes must be read before the rebalance rewrites the
    // bookkeeping.
    const Bytes resident = fw->appBytesOn(hdmApp(old_host), d);
    binding_[d] = op.new_host;
    rebuildDecoders();
    rebalanceHdmReservations();
    ++*c_rebinds;
    const unsigned dest = decoders_[old_host].range(0).targets.front();
    if (resident.value() == 0 || dest == d) {
        completeOp();
        return;
    }
    op_pending_acks_ = chunkCount(resident);
    op_done_ = [this] { completeOp(); };
    fabric->send(NodeId::host(), sys->dimmNodeId(d), Bytes{16},
                       false, TenantId{}, 0,
                       [this, d, dest, resident](Tick) {
                           chunkTransfer(d, dest, resident);
                       });
}

void
RackSystem::chunkTransfer(unsigned src, unsigned dst, Bytes bytes)
{
    // Runs at @p src (kicked by a management flit).
    std::uint64_t remaining = bytes.value();
    std::uint64_t offset = 0;
    while (remaining > 0) {
        const Bytes chunk{std::min(remaining, migration_chunk)};
        // Transient migration DPA region above every other window.
        const std::uint64_t dpa =
            (std::uint64_t(1) << 40) + offset;
        sys->dimmDram(
            src, rackAccess(src, dpa, chunk), false,
            [this, src, dst, dpa, chunk](Tick) {
                fabric->send(
                    sys->dimmNodeId(src), sys->dimmNodeId(dst),
                    chunk, false, TenantId{}, 0,
                    [this, dst, dpa, chunk](Tick) {
                        // At the destination: commit, ack the manager.
                        sys->dimmDram(
                            dst, rackAccess(dst, dpa, chunk), true,
                            [this, dst, chunk](Tick) {
                                fabric->send(
                                    sys->dimmNodeId(dst),
                                    NodeId::host(), Bytes{8}, false,
                                    TenantId{}, 0, [this, chunk](Tick) {
                                        opAck(chunk);
                                    });
                            });
                    });
            });
        offset += chunk.value();
        remaining -= chunk.value();
    }
}

void
RackSystem::opAck(Bytes chunk)
{
    // Account the migration (source read + target write).
    *c_migrated += double(chunk.value());
    sys->accountDramBytes(TenantId{}, Bytes{2 * chunk.value()});
    BEACON_ASSERT(op_pending_acks_ > 0,
                  "unexpected rack migration ack");
    if (--op_pending_acks_ == 0) {
        auto finish = std::move(op_done_);
        op_done_ = nullptr;
        finish();
    }
}

void
RackSystem::completeOp()
{
    op_running_ = false;
    op_active_ = false;
    paused_ = false;
    std::deque<std::function<void()>> replay;
    replay.swap(paused_ingress_);
    for (auto &fn : replay)
        fn();
    pumpOps();
}

// ------------------------------------------------------------------
// Drive loop and reporting
// ------------------------------------------------------------------

bool
RackSystem::allFinished() const
{
    for (const auto &host : hosts_) {
        if (!host->finished())
            return false;
    }
    return true;
}

bool
RackSystem::rackBusy() const
{
    return op_active_ || !op_queue_.empty() || rack_inflight_ > 0 ||
           txn_inflight_ > 0 || !paused_ingress_.empty();
}

RackReport
RackSystem::run()
{
    BEACON_ASSERT(!ran_, "RackSystem::run() is one-shot");
    ran_ = true;
    EventQueue &eq = sys->eventQueue();
    sys->setSlotFreedFn([this] {
        for (auto &host : hosts_)
            host->dispatch();
    });

    // Per-host pool-bandwidth series from the hosts' disjoint
    // tenant-tagged counters (must register before sampling starts).
    if (obs::Sampler *sampler = sys->obsSampler()) {
        for (unsigned h = 0; h < p.hosts; ++h) {
            std::vector<std::string> substrings;
            for (const TenantId tenant : hosts_[h]->tenantIds()) {
                substrings.push_back(
                    "tenant" + std::to_string(tenant.value()) +
                    ".usefulBytes");
            }
            if (!substrings.empty()) {
                sampler->addCounterRate(
                    "rack.host" + std::to_string(h) + ".fabricGBps",
                    sys->statsMutable(), std::move(substrings),
                    1e-9);
            }
        }
    }

    for (auto &host : hosts_)
        host->start();

    while (!allFinished() || rackBusy()) {
        if (!eq.runOne()) {
            BEACON_PANIC("rack run stalled with ", rack_inflight_,
                         " rack ops in flight and ",
                         op_queue_.size(),
                         " reconfigurations queued");
        }
    }

    const Tick end = eq.now();
    RackReport report;
    report.machine = sys->machineResult(end);
    for (auto &host : hosts_)
        report.hosts.push_back(host->collectReport(report.machine));

    if (mp.checkers.enabled)
        verifyRackConservation();

    const StatRegistry &reg = sys->stats();
    report.cache_hits =
        std::uint64_t(reg.counterValue("rack.cacheHits"));
    report.cache_misses =
        std::uint64_t(reg.counterValue("rack.cacheMisses"));
    report.invalidations =
        std::uint64_t(reg.counterValue("rack.invalidations"));
    report.bi_flits = std::uint64_t(reg.sumMatching(".biFlits"));
    report.ingress_bytes = Bytes{
        std::uint64_t(reg.counterValue("rack.ingressBytes"))};
    report.migrated_bytes = Bytes{
        std::uint64_t(reg.counterValue("rack.migratedBytes"))};
    report.hot_adds =
        unsigned(reg.counterValue("rack.hotAdds"));
    report.hot_removes =
        unsigned(reg.counterValue("rack.hotRemoves"));
    report.rebinds = unsigned(reg.counterValue("rack.rebinds"));
    if (report.machine.seconds > 0) {
        const double pool_rate =
            double(sys->numDimms()) *
            fabric->params().dimm_link.gb_per_s * 1e9;
        report.pool_utilization =
            double(report.machine.wire_bytes.value()) /
            (pool_rate * report.machine.seconds);
    }

    sys->setSlotFreedFn(nullptr);
    return report;
}

void
RackSystem::verifyRackConservation() const
{
    // The per-orchestrator check only knows its own tenants; on a
    // rack the tagged counters of EVERY host must sum to the shared
    // machine's untagged totals.
    const StatRegistry &reg = sys->stats();
    auto check = [](double total, double by_tenant,
                    const char *what) {
        BEACON_ASSERT(std::abs(total - by_tenant) <= 1e-6,
                      "per-tenant ", what,
                      " do not sum to the untagged total: ",
                      by_tenant, " vs ", total);
    };

    double fabric_bytes = reg.sumMatching("tenant0.usefulBytes");
    double pe_ticks = reg.sumMatching("tenant0.peBusyTicks");
    double dram_bytes = reg.sumMatching("tenant0.dramBytes");
    for (const auto &host : hosts_) {
        for (const TenantId tenant : host->tenantIds()) {
            const std::string tag =
                "tenant" + std::to_string(tenant.value());
            fabric_bytes += reg.sumMatching(tag + ".usefulBytes");
            pe_ticks += reg.sumMatching(tag + ".peBusyTicks");
            dram_bytes += reg.sumMatching(tag + ".dramBytes");
        }
    }
    check(reg.sumMatching("usefulBytesTotal"), fabric_bytes,
          "fabric bytes");
    check(reg.sumMatching("peBusyTotalTicks"), pe_ticks,
          "PE busy ticks");
    check(reg.sumMatching("dramBytesTotal"), dram_bytes,
          "DRAM bytes");
}

} // namespace beacon::rack
