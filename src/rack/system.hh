/**
 * @file
 * Multi-host rack-scale pool sharing.
 *
 * A RackSystem attaches N hosts to ONE shared BEACON pool machine:
 *
 *  - every host runs its own PoolOrchestrator front-end (disjoint
 *    tenant-id ranges, so the PR-3 tenant-counter machinery splits
 *    every shared statistic per host for free);
 *  - hosts reach the pool through a multi-level rack switch tree
 *    (RackTree) — job inputs stream down the tree before the HDM
 *    decoder scatters them across the host's expansion DIMMs;
 *  - the pool grows `expansion_switches` extra switches whose DIMMs
 *    are the rack's hot-pluggable expanders. They are reserved out of
 *    tenant placement (SystemParams::rack_reserved_dimms), carved up
 *    by per-host HdmDecoders instead, and virtual-CXL-switch (VCS)
 *    bindings assign each expander to one host's virtual hierarchy;
 *  - shared segments (reference genomes) live once on an owning
 *    expander with back-invalidate coherence (SegmentCoherence);
 *  - hot-add / hot-remove / VCS-rebind events drain in-flight rack
 *    traffic, migrate resident regions (MemoryFramework::evacuate),
 *    update fabric registration and every host's decoder, and resume.
 *
 * Determinism: everything is driven by the one shared event queue, so
 * runs are bit-identical across repeats and across BEACON_BENCH_JOBS
 * — test- and CI-enforced.
 */

#ifndef BEACON_RACK_SYSTEM_HH
#define BEACON_RACK_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "accel/system.hh"
#include "memmgmt/mapper.hh"
#include "rack/coherence.hh"
#include "rack/hdm_decoder.hh"
#include "rack/topology.hh"
#include "service/orchestrator.hh"

namespace beacon::rack
{

/** Rack topology and policy knobs. */
struct RackParams
{
    /** Hosts sharing the pool (1..64; 64 = sharer-bitmask width). */
    unsigned hosts = 2;
    /** Rack switch levels between each host and the pool root. */
    unsigned switch_levels = 1;
    /** Extra pool switches holding the hot-pluggable expanders. */
    unsigned expansion_switches = 1;
    /** HDM interleave ways (capped by the host's bound expanders). */
    unsigned interleave_ways = 2;
    /** HDM interleave granularity (power of two). */
    std::uint32_t interleave_granularity = 256;
    /** HPA window size per host; windows and their DPA images are
     *  disjoint across hosts by construction. */
    Bytes hdm_bytes_per_host{4ull << 20};
    /** Input bytes streamed down the rack tree and scattered through
     *  the HDM decoder per admitted job (0 disables ingress I/O). */
    Bytes ingress_bytes_per_job{4096};
    /** Bytes each job reads from every shared segment. */
    Bytes segment_read_bytes_per_job{512};
    /** Every Nth segment access of a host is a (BI-triggering) block
     *  write instead of a read batch; 0 = never write. */
    unsigned segment_write_every = 8;
    /** Rack tree link configuration (all levels). */
    LinkParams rack_link{64.0, 30000, false};
    SchedulerKind scheduler = SchedulerKind::Fcfs;
    std::uint64_t seed = 1;
    /** Shared segments; owner_dimm names a global expansion DIMM. */
    std::vector<SegmentParams> segments;
    /**
     * Pool machine the rack is built from. Must be a CXL pool preset
     * (not a DDR fabric); the constructor appends the expansion
     * switches and the reserved-DIMM list itself.
     */
    SystemParams base = SystemParams::beaconD();
};

/** Whole-rack outcome: the machine, every host, and rack counters. */
struct RackReport
{
    RunResult machine;
    /** Index = host; each host's ordinary ServiceReport. */
    std::vector<ServiceReport> hosts;
    /** Pool wire bytes over aggregate DIMM-link capacity x time. */
    double pool_utilization = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t bi_flits = 0;
    std::uint64_t invalidations = 0;
    Bytes ingress_bytes;
    Bytes migrated_bytes;
    unsigned hot_adds = 0;
    unsigned hot_removes = 0;
    unsigned rebinds = 0;
};

/**
 * N orchestrator front-ends multiplexed over one shared pool machine
 * plus the rack-only hardware: tree links, HDM decoders, expander
 * bindings, segment directories, and the hot-plug state machine.
 */
class RackSystem
{
  public:
    explicit RackSystem(const RackParams &params);
    ~RackSystem();

    RackSystem(const RackSystem &) = delete;
    RackSystem &operator=(const RackSystem &) = delete;

    const RackParams &params() const { return p; }
    NdpSystem &machine() { return *sys; }
    unsigned numHosts() const { return p.hosts; }
    PoolOrchestrator &host(unsigned h) { return *hosts_.at(h); }

    /** Global indices of the hot-pluggable expansion DIMMs. */
    const std::vector<unsigned> &expansionDimms() const
    {
        return expansion_;
    }
    bool online(unsigned dimm) const { return online_.count(dimm); }
    /** Host whose virtual hierarchy @p dimm is bound to. */
    unsigned boundHost(unsigned dimm) const
    {
        return binding_.at(dimm);
    }
    const HdmDecoder &decoder(unsigned host) const
    {
        return decoders_.at(host);
    }
    const RackTree &tree() const { return *tree_; }
    SegmentCoherence &segment(std::size_t i)
    {
        return *segments_.at(i);
    }
    std::size_t numSegments() const { return segments_.size(); }

    /** Admit a tenant on @p host (see PoolOrchestrator::addTenant). */
    TenantId addTenant(unsigned host, const TenantSpec &spec);

    /** @name Hot-plug schedule (call before run())
     * Each event executes at tick @p at: it pauses new rack
     * ingress, waits for in-flight rack traffic to drain, performs
     * the reconfiguration (with its migration traffic), then resumes
     * and replays paused ingress in arrival order. @{ */
    void scheduleHotRemove(Tick at, unsigned dimm);
    void scheduleHotAdd(Tick at, unsigned dimm);
    void scheduleRebind(Tick at, unsigned dimm, unsigned new_host);
    /** @} */

    /** Run every host's job mix to completion and report. Once. */
    RackReport run();

  private:
    struct RackOp
    {
        enum class Kind
        {
            HotAdd,
            HotRemove,
            Rebind,
        };
        Kind kind = Kind::HotAdd;
        unsigned dimm = 0;
        unsigned new_host = 0;
    };

    /** Completion bookkeeping of one job's ingress. */
    struct IngressState
    {
        unsigned host = 0;
        TenantId tenant;
        std::uint64_t job = 0; //!< orchestrator job id (0 = none)
        unsigned pending = 0;
        std::size_t seg = 0;
        std::function<void()> cont;
    };

    /** Derive the machine parameters (expansion switches appended,
     *  expander DIMMs reserved out of tenant placement). */
    static SystemParams machineParams(const RackParams &p);

    std::string hdmApp(unsigned host) const;
    std::string segApp(const SegmentParams &seg) const;

    /** Reprogram every host's decoder from online_ + binding_. */
    void rebuildDecoders();
    /** Rewrite the per-host HDM capacity reservations to match the
     *  decoders (supersedes evacuate()'s interim bookkeeping). */
    void rebalanceHdmReservations();

    /** DRAM access for @p bytes at @p dpa on expander @p dimm. */
    ResolvedAccess rackAccess(unsigned dimm, std::uint64_t dpa,
                              Bytes bytes) const;
    /** DRAM access covering @p block of segment @p seg. */
    ResolvedAccess segAccess(std::size_t seg,
                             std::uint64_t block) const;

    // --- ingress pipeline ---
    void beginIngress(unsigned host, TenantId tenant,
                      std::uint64_t job,
                      std::function<void()> cont);
    void scatterHdm(const std::shared_ptr<IngressState> &st);
    void hdmPieceDone(const std::shared_ptr<IngressState> &st);
    void segmentPhase(const std::shared_ptr<IngressState> &st);
    void finishIngress(const std::shared_ptr<IngressState> &st);

    // --- coherence protocol ---
    void coherentAccess(unsigned host, TenantId tenant,
                        std::size_t seg, std::uint64_t block,
                        bool is_write, std::function<void()> done);
    /** Owner-side entry: serialise per block, then transact. */
    void ownerHandle(unsigned host, TenantId tenant, std::size_t seg,
                     std::uint64_t block, bool is_write,
                     std::function<void()> done);
    /** Owner side: claim the block, update the directory, fetch the
     *  data; BI snoops and the response issue from the fetch's
     *  completion. */
    void startTxn(unsigned host, TenantId tenant, std::size_t seg,
                  std::uint64_t block, bool is_write,
                  std::function<void()> done);
    /** Host-side tail: response flit, install, retire, unbusy kick. */
    void respond(unsigned host, TenantId tenant, std::size_t seg,
                 std::uint64_t block, bool is_write,
                 std::function<void()> done);

    // --- hot-plug state machine ---
    void enqueueOp(const RackOp &op);
    void pumpOps();
    void tryExecuteOp();
    void executeHotAdd(const RackOp &op);
    void executeHotRemove(const RackOp &op);
    void executeRebind(const RackOp &op);
    /** Stream @p bytes from @p src to @p dst in 4 KiB chunks; every
     *  chunk ack decrements op_pending_acks_. Kicked via a 16-byte
     *  management flit so the reads issue at @p src. */
    void chunkTransfer(unsigned src, unsigned dst, Bytes bytes);
    void opAck(Bytes chunk);
    void completeOp();

    bool allFinished() const;
    bool rackBusy() const;
    void verifyRackConservation() const;

    RackParams p;
    SystemParams mp;
    std::unique_ptr<NdpSystem> sys;
    PoolFabric *fabric = nullptr;
    MemoryFramework *fw = nullptr;
    std::unique_ptr<RackTree> tree_;
    std::vector<std::unique_ptr<PoolOrchestrator>> hosts_;

    std::vector<unsigned> expansion_;
    std::set<unsigned> online_;
    std::map<unsigned, unsigned> binding_; //!< expander -> host
    std::vector<HdmDecoder> decoders_;     //!< per host
    std::vector<std::uint64_t> hdm_cursor_; //!< per host, HPA offset
    std::map<unsigned, DimmAddressMapper> rack_mappers_;

    std::vector<std::unique_ptr<SegmentCoherence>> segments_;
    /** Per host per segment: next block cursor. */
    std::vector<std::vector<std::uint64_t>> seg_cursor_;
    /** Per host: segment accesses so far (write cadence). */
    std::vector<std::uint64_t> seg_ops_;

    // Hot-plug state machine.
    std::deque<RackOp> op_queue_;
    bool op_active_ = false;
    /** Set while an op is dispatched (possibly migrating); blocks
     *  tryExecuteOp from overtaking it with the next queued op. */
    bool op_running_ = false;
    bool paused_ = false;
    std::uint64_t rack_inflight_ = 0;
    /** Coherence transactions between miss issue and install.
     *  Hot-plug drains on this count; in-flight install-acks
     *  are safe because an op's directory-clear kick is sent after
     *  every ack and the fabric path to the owner is FIFO. */
    std::uint64_t txn_inflight_ = 0;
    std::deque<std::function<void()>> paused_ingress_;
    std::uint64_t op_pending_acks_ = 0;
    std::function<void()> op_done_;

    // Counters (registry-backed).
    Counter *c_ingress = nullptr;
    Counter *c_hits = nullptr;
    Counter *c_misses = nullptr;
    Counter *c_inval = nullptr;
    Counter *c_migrated = nullptr;
    Counter *c_hot_adds = nullptr;
    Counter *c_hot_removes = nullptr;
    Counter *c_rebinds = nullptr;
    /** Per segment: BI snoops issued. */
    std::vector<Counter *> c_bi_;

    bool ran_ = false;
};

} // namespace beacon::rack

#endif // BEACON_RACK_SYSTEM_HH
