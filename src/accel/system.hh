/**
 * @file
 * Composed accelerator systems.
 *
 * NdpSystem instantiates a full machine — fabric (CXL pool or DDR
 * channels), one DRAM controller per DIMM, NDP modules (on
 * CXLG-DIMMs, in switches, or per DDR-DIMM), atomic engines, and the
 * memory-management framework — then drives a Workload through it
 * and reports time, energy, and activity statistics.
 *
 * The same class realises every evaluated configuration:
 *   MEDAL / NEST          (DDR fabric, NDP in every customised DIMM)
 *   CXL-vanilla           (pool fabric, all optimizations off)
 *   BEACON-D / BEACON-S   (pool fabric, optimizations per flags)
 * and each system's idealized-communication twin.
 */

#ifndef BEACON_ACCEL_SYSTEM_HH
#define BEACON_ACCEL_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "accel/ddr_fabric.hh"
#include "accel/energy_model.hh"
#include "accel/workload.hh"
#include "check/checker_config.hh"
#include "cxl/pool.hh"
#include "dram/controller.hh"
#include "dram/energy.hh"
#include "memmgmt/framework.hh"
#include "ndp/atomic_engine.hh"
#include "ndp/ndp_module.hh"
#include "obs/observability.hh"
#include "sim/event_queue.hh"

namespace beacon
{

/** The paper's cumulative optimization switches. */
struct OptimizationFlags
{
    bool data_packing = false;      //!< Data Packers active
    bool mem_access_opt = false;    //!< device-bias routing (Fig. 9)
    bool placement_mapping = false; //!< placement + address mapping
    unsigned coalesce_chips = 1;    //!< >1 enables multi-chip coalescing
    bool kmc_single_pass = false;   //!< single-pass k-mer counting
    /** Stripe weight of a CXLG-DIMM under proximity placement (how
     *  much hot data migrates onto the NDP module's own DIMM). */
    unsigned cxlg_stripe_weight = 5;
    /**
     * Function shipping (MEDAL-style task forwarding): a remote read
     * whose target DIMM has NDP capability executes the consuming
     * step there and returns only the 8-byte result instead of the
     * operand block. Halves fine-grained response traffic at the
     * cost of remote PE work.
     */
    bool function_shipping = false;
};

/**
 * Former discrete-event engine selection. The simulator has one
 * serial event queue; this empty struct stays only because
 * perfbench/workloads.cc:124 assigns SystemParams::des.
 */
struct DesParams
{};

/** Full machine description. */
struct SystemParams
{
    std::string name = "system";
    /** DDR-channel fabric (MEDAL/NEST) instead of the CXL pool. */
    bool ddr_fabric = false;
    /** NDP modules in the CXL-Switches (BEACON-S) instead of DIMMs. */
    bool ndp_in_switch = false;
    /** Switches (pool) or channels (DDR). */
    unsigned num_groups = 2;
    /** DIMMs per switch/channel. */
    unsigned dimms_per_group = 4;
    /** Global indices of customised (NDP-capable) DIMMs. */
    std::vector<unsigned> cxlg_dimms;
    /** PEs per NDP module. */
    unsigned pes_per_module = 128;
    /** Max in-flight tasks per NDP module. */
    unsigned max_inflight_tasks = 256;
    /** Which Table II PE row prices the PEs. */
    std::string pe_architecture = "BEACON";
    /** Row-buffer policy of every DRAM controller. */
    PagePolicy page_policy = PagePolicy::Open;

    OptimizationFlags opts;
    /** Idealized communication (infinite bandwidth, zero latency). */
    bool ideal_comm = false;

    /**
     * Runtime verification (src/check): one switch arming every
     * checker. Defaults to the BEACON_CHECKERS environment variable
     * so CI can arm them fleet-wide; harnesses may also set it.
     */
    CheckerConfig checkers = CheckerConfig::fromEnv();

    /**
     * Telemetry (src/obs): tracing, time-series sampling,
     * self-profiling, request tracing, SLO monitors and the flight
     * recorder. All off by default, which builds no obs machinery;
     * the bench harnesses turn features on from their flags.
     */
    obs::ObsConfig obs;

    /** No options (see DesParams). */
    DesParams des;

    PoolParams pool;          //!< used when !ddr_fabric
    DdrFabricParams ddr;      //!< used when ddr_fabric

    /**
     * Global DIMM indices reserved for the rack layer (src/rack):
     * excluded from every tenant layout's stripe lists so the rack's
     * hot-pluggable expansion DIMMs never hold tenant structures.
     * Capacity on them is tracked via MemoryFramework::reserveOn().
     * Empty (the default) for every preset — no placement change.
     */
    std::vector<unsigned> rack_reserved_dimms;
    CommEnergyParams comm_energy;
    DramEnergyParams dram_energy;

    /** @name Factory presets (Table I topologies) @{ */
    static SystemParams medal();
    static SystemParams nest();
    static SystemParams cxlVanillaD();
    static SystemParams cxlVanillaS();
    static SystemParams beaconD();
    static SystemParams beaconS();
    /** @} */

    /** Copy with idealized communication enabled. */
    SystemParams idealized() const;
};

/** Result of one workload run. */
struct RunResult
{
    std::string system;
    std::string workload;
    Tick ticks = 0;
    double seconds = 0;
    std::uint64_t tasks = 0;
    double tasks_per_second = 0;
    SystemEnergy energy;
    Bytes wire_bytes;
    std::uint64_t host_round_trips = 0;
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;
    /** Per-chip-position access counts summed over DIMMs (Fig 13). */
    std::vector<double> chip_accesses;
    /** Coefficient of variation of per-chip accesses. */
    double chip_access_cov = 0;
};

/**
 * One fully instantiated machine.
 *
 * Two modes of operation:
 *  - bound to one Workload (the classic construction): run() drives
 *    the workload's tasks to completion and reports metrics;
 *  - service mode (workload-less construction): an external
 *    orchestrator (src/service) admits tenants through the memory
 *    framework, registers their layouts, and dispatches tasks via
 *    serveTask() — many concurrent jobs share this one machine.
 */
class NdpSystem
{
  public:
    NdpSystem(const SystemParams &params, const Workload &workload);

    /**
     * Service mode: build the machine with no bound workload. Tasks
     * arrive through serveTask() and memory through per-tenant
     * allocations (see placementPolicy() / setTenantLayout()).
     */
    explicit NdpSystem(const SystemParams &params);

    ~NdpSystem();

    /**
     * Run @p num_tasks tasks (0 = all of the workload's tasks) to
     * completion and report metrics. Multi-pass k-mer counting runs
     * both passes plus the filter merge.
     */
    RunResult run(std::size_t num_tasks = 0);

    /** Statistic registry (inspectable after run()). */
    const StatRegistry &stats() const { return registry; }

    /** DRAM controller of a DIMM (tests). */
    const DramController &dimmController(unsigned index) const
    {
        return *controllers.at(index);
    }

    /** The placement decisions in effect. */
    const MemoryLayout &layout() const { return *mem_layout; }

    unsigned numPartitions() const { return unsigned(ndps.size()); }

    /** @name Service mode (multi-tenant orchestration) @{ */

    /** The memory framework, for tenant admission decisions. */
    MemoryFramework &memoryFramework() { return *framework; }

    /** Event queue, for orchestrators driving the loop directly. */
    EventQueue &eventQueue() { return eq; }

    /** Mutable registry access (orchestrator-level statistics). */
    StatRegistry &statsMutable() { return registry; }

    /**
     * Placement-policy prototype matching this machine's topology
     * and optimization flags; tenants start from it when building
     * their AllocationRequests so every tenant layout agrees with
     * the machine on partition count and NDP placement.
     */
    const PlacementPolicy &placementPolicy() const
    {
        return policy_proto;
    }

    /** Register / drop the layout backing a tenant's accesses. */
    void setTenantLayout(TenantId tenant,
                         std::shared_ptr<MemoryLayout> layout);
    void dropTenantLayout(TenantId tenant);

    /** True when some NDP module can accept another task. */
    bool hasFreeSlot() const;

    /**
     * Dispatch one task: input streaming from the host (tagged with
     * the task's tenant and job) followed by submission to an NDP
     * module with room, chosen round-robin. @p on_done (may be
     * empty) fires at task completion. run() feeds its workload's
     * tasks through here too.
     * Returns false — without consuming the task's slot — when every
     * module is full.
     */
    bool serveTask(TaskPtr task, NdpModule::TaskDoneFn on_done);

    /** Observer invoked whenever a task slot frees up. */
    void setSlotFreedFn(std::function<void()> fn)
    {
        slot_freed = std::move(fn);
    }

    /**
     * Machine-level metrics as of @p end, including end-of-run
     * checker finalization. run() uses this internally; service-mode
     * orchestrators call it once their job mix has drained.
     */
    RunResult machineResult(Tick end);

    unsigned maxInflightTasks() const { return p.max_inflight_tasks; }
    Tick peClockPs() const { return pe_clock_ps; }
    const SystemParams &params() const { return p; }

    /** Telemetry bundle, or nullptr when ObsConfig is all-off. */
    obs::Observability *observability()
    {
        return observability_.get();
    }

    /** Time-series sampler, or nullptr when sampling is off. */
    obs::Sampler *
    obsSampler()
    {
        return observability_ ? observability_->sampler() : nullptr;
    }

    /** Request trace, or nullptr when request tracing is off. */
    obs::RequestTrace *
    obsRequestTrace()
    {
        return observability_ ? observability_->requestTrace()
                              : nullptr;
    }

    /** Live SLO monitor, or nullptr when no SLO window is set. */
    obs::SloMonitor *
    obsSlo()
    {
        return observability_ ? observability_->slo() : nullptr;
    }

    /** NDP module of a partition (per-tenant stat inspection). */
    const NdpModule &ndpModule(unsigned partition) const
    {
        return *ndps.at(partition);
    }

    /** @} */

    /** @name Rack integration (src/rack) @{ */

    /**
     * The CXL pool fabric; hard-fails on DDR machines. Rack layers
     * use it to register extra hosts, send HDM/segment traffic, and
     * drive hot-plug (un)registration.
     */
    PoolFabric &poolFabric();

    /** Total DIMMs in the machine. */
    unsigned numDimms() const { return unsigned(controllers.size()); }

    /** Node id of DIMM @p index in the pool inventory. */
    NodeId dimmNodeId(unsigned index) const
    {
        return dimm_nodes.at(index);
    }

    /**
     * Enqueue one DRAM access on DIMM @p index (no fabric hop); @p job
     * is the request context carried into the MemRequest (0 = none).
     * Every NDP access reaches DRAM here, and so does rack segment
     * and HDM traffic after its fabric delivery.
     */
    void dimmDram(unsigned index, const ResolvedAccess &piece,
                  bool is_write, Completion done,
                  std::uint64_t job = 0);

    /**
     * Account @p bytes of logical DRAM traffic to @p tenant and the
     * untagged total (conservation holds by construction). Every
     * NDP access (issueAccess()) and every rack access lands here.
     */
    void
    accountDramBytes(TenantId tenant, Bytes bytes)
    {
        *stat_dram_bytes += double(bytes.value());
        tenantDramStat(tenant) += double(bytes.value());
    }

    /** @} */

  private:
    /** Instantiate fabric, DRAM, NDP modules, engines, framework. */
    void buildMachine();

    /** The layout backing accesses of @p tenant. */
    const MemoryLayout &layoutFor(TenantId tenant) const;

    /** Lazily created per-tenant logical DRAM byte counter
     *  ("system.tenant<k>.dramBytes"). */
    Counter &tenantDramStat(TenantId tenant);

    /** NodeId hosting partition @p p's NDP module. */
    NodeId ndpNode(unsigned partition) const;

    /**
     * Deliver an outbound fabric send of a DIMM-resident NDP
     * partition: the message crosses the DIMM-link interface
     * (egress_delay_) before entering the fabric. Zero delay (DDR,
     * in-switch, idealized systems) sends synchronously.
     */
    void stageEgress(EventCallback send);

    /** Translate + route one logical access for partition @p p. */
    void issueAccess(unsigned partition, const AccessRequest &request,
                     Completion done);

    /** Route one resolved piece. */
    void issuePiece(unsigned partition, const AccessRequest &request,
                    const ResolvedAccess &piece, Completion done);

    /** Atomic RMW via the home switch's Atomic Engine. */
    void atomicAccess(unsigned partition, const AccessRequest &request,
                      const ResolvedAccess &piece, Completion done);

    /** Serve workload tasks through serveTask() while tasks remain
     *  and some module has room. */
    void pump();

    /** Run the event loop until @p target tasks completed. */
    void drainUntil(std::uint64_t target);

    /** Ring-broadcast the partition-local filters (multi-pass). */
    void mergeFilters();

    SystemParams p;
    /** Bound workload; nullptr in service mode. */
    const Workload *workload = nullptr;
    WorkloadContext ctx;

    EventQueue eq;
    StatRegistry registry;

    /** Telemetry; constructed before any component so the trace
     *  sink is attached when components cache it. */
    std::unique_ptr<obs::Observability> observability_;

    std::unique_ptr<PoolFabric> pool_fabric;
    std::unique_ptr<DdrFabric> ddr_fabric;
    Fabric *fabric = nullptr;

    std::vector<std::unique_ptr<DramController>> controllers;
    std::vector<NodeId> dimm_nodes;
    std::vector<std::unique_ptr<NdpModule>> ndps;
    std::vector<NodeId> ndp_nodes;
    std::vector<std::unique_ptr<AtomicEngine>> atomic_engines;

    std::unique_ptr<MemoryFramework> framework;
    std::shared_ptr<MemoryLayout> mem_layout;
    /** Topology-derived policy prototype (see placementPolicy()). */
    PlacementPolicy policy_proto;
    /** Layouts registered by service-mode tenants, guarded by
     *  layout_mutex. */
    mutable std::shared_mutex layout_mutex;
    std::map<TenantId, std::shared_ptr<MemoryLayout>> tenant_layouts;
    /** Logical bytes requested of DRAM: "system.dramBytesTotal" and
     *  its per-tenant split "system.tenant<k>.dramBytes"
     *  (conservation: the per-tenant sum equals the total). */
    Counter *stat_dram_bytes = nullptr;
    std::map<TenantId, Counter *> tenant_dram_stats;
    /** Model delays of the DIMM-resident NDP completion/egress paths
     *  (0 on DDR / in-switch / idealized systems). */
    Tick done_notify_delay_ = 0;
    Tick egress_delay_ = 0;
    /** Service-mode observer: a module slot became free. */
    std::function<void()> slot_freed;

    // Task driver state.
    std::size_t next_task = 0;
    std::size_t target_tasks = 0;
    std::uint64_t completed_tasks = 0;
    unsigned next_partition = 0;
    /** Tasks dispatched (including in-flight input messages) and not
     *  yet completed, per partition. */
    std::vector<unsigned> inflight;

    Tick pe_clock_ps = 1250;
};

} // namespace beacon

#endif // BEACON_ACCEL_SYSTEM_HH
