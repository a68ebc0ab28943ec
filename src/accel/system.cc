#include "system.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace beacon
{

// ---------------------------------------------------------------
// Presets (Table I)
// ---------------------------------------------------------------

namespace
{

std::vector<unsigned>
allDimms(unsigned groups, unsigned per_group)
{
    std::vector<unsigned> out(groups * per_group);
    for (unsigned i = 0; i < out.size(); ++i)
        out[i] = i;
    return out;
}

} // namespace

SystemParams
SystemParams::medal()
{
    SystemParams p;
    p.name = "MEDAL";
    p.ddr_fabric = true;
    p.num_groups = 4;       // DDR channels
    p.dimms_per_group = 2;  // DIMMs per channel
    p.cxlg_dimms = allDimms(4, 2);
    p.pes_per_module = 32;  // 8 x 32 = 256 PEs, equal area
    p.pe_architecture = "MEDAL";
    p.opts.placement_mapping = true; // MEDAL's fine-grained mapping
    p.ddr.num_channels = 4;
    p.ddr.dimms_per_channel = 2;
    return p;
}

SystemParams
SystemParams::nest()
{
    SystemParams p = medal();
    p.name = "NEST";
    p.pe_architecture = "NEST";
    return p;
}

SystemParams
SystemParams::cxlVanillaD()
{
    SystemParams p;
    p.name = "CXL-vanilla-D";
    p.ddr_fabric = false;
    p.num_groups = 2;       // CXL-Switches
    p.dimms_per_group = 4;
    p.cxlg_dimms = {0, 4};  // one CXLG-DIMM per switch
    p.pes_per_module = 128;
    p.pe_architecture = "BEACON";
    p.pool.num_switches = 2;
    p.pool.dimms_per_switch = 4;
    // NDP-in-DIMM pool systems count k-mers against the global
    // distributed filter directly: their filter spans unmodified
    // DIMMs, so NEST-style per-DIMM localization does not apply.
    p.opts.kmc_single_pass = true;
    return p;
}

SystemParams
SystemParams::cxlVanillaS()
{
    SystemParams p = cxlVanillaD();
    p.name = "CXL-vanilla-S";
    p.ndp_in_switch = true;
    p.cxlg_dimms.clear(); // no DIMM is customised
    p.pes_per_module = 256;
    return p;
}

SystemParams
SystemParams::beaconD()
{
    SystemParams p = cxlVanillaD();
    p.name = "BEACON-D";
    p.opts.data_packing = true;
    p.opts.mem_access_opt = true;
    p.opts.placement_mapping = true;
    p.opts.coalesce_chips = 8;
    return p;
}

SystemParams
SystemParams::beaconS()
{
    SystemParams p = cxlVanillaS();
    p.name = "BEACON-S";
    p.opts.data_packing = true;
    p.opts.mem_access_opt = true;
    p.opts.placement_mapping = true;
    p.opts.kmc_single_pass = true;
    return p;
}

SystemParams
SystemParams::idealized() const
{
    SystemParams p = *this;
    p.name += "-ideal";
    p.ideal_comm = true;
    return p;
}

// ---------------------------------------------------------------
// Construction
// ---------------------------------------------------------------

NdpSystem::NdpSystem(const SystemParams &params, const Workload &wl)
    : p(params), workload(&wl)
{
    buildMachine();

    AllocationRequest request;
    request.app = workload->name();
    request.structures = workload->structures();
    request.policy = policy_proto;

    AllocationResponse response = framework->allocate(request);
    if (!response.success)
        BEACON_FATAL("allocation failed: ", response.error);
    mem_layout = response.layout;

    ctx.kmc_single_pass = p.opts.kmc_single_pass;
    ctx.pass = 0;
}

NdpSystem::NdpSystem(const SystemParams &params)
    : p(params)
{
    buildMachine();
    ctx.kmc_single_pass = p.opts.kmc_single_pass;
    ctx.pass = 0;
}

void
NdpSystem::buildMachine()
{
    const unsigned num_dimms = p.num_groups * p.dimms_per_group;
    // Each CXLG index names one DIMM of this machine, once.
    for (auto it = p.cxlg_dimms.begin(); it != p.cxlg_dimms.end(); ++it) {
        if (*it >= num_dimms)
            BEACON_FATAL("cxlg_dimms index ", *it,
                         " is out of range: the machine has ",
                         num_dimms, " DIMMs");
        if (std::find(p.cxlg_dimms.begin(), it, *it) != it)
            BEACON_FATAL("cxlg_dimms index ", *it, " is repeated");
    }
    auto is_cxlg = [&](unsigned dimm) {
        return std::find(p.cxlg_dimms.begin(), p.cxlg_dimms.end(),
                         dimm) != p.cxlg_dimms.end();
    };

    // DIMM-resident pool NDP (BEACON-D / CXL-vanilla-D): the module's
    // completion notify crosses the host link back to the driver and
    // its outbound fabric messages cross the DIMM-link interface.
    if (!p.ddr_fabric && !p.ndp_in_switch && !p.ideal_comm) {
        done_notify_delay_ = p.pool.host_link.latency;
        egress_delay_ = p.pool.dimm_link.latency;
    }

    // Telemetry first: the trace sink must be attached to the queue
    // before components construct (they cache the sink pointer).
    if (p.obs.enabled())
        observability_ =
            std::make_unique<obs::Observability>(eq, p.obs);

    // --- Fabric ---
    if (p.ddr_fabric) {
        DdrFabricParams dp = p.ddr;
        dp.num_channels = p.num_groups;
        dp.dimms_per_channel = p.dimms_per_group;
        dp.ideal = p.ideal_comm;
        ddr_fabric = std::make_unique<DdrFabric>("ddrFabric", eq,
                                                 registry, dp);
        fabric = ddr_fabric.get();
    } else {
        PoolParams pp = p.pool;
        pp.num_switches = p.num_groups;
        pp.dimms_per_switch = p.dimms_per_group;
        pp.device_bias = p.opts.mem_access_opt;
        pp.packer.enabled = p.opts.data_packing;
        pp.ideal = p.ideal_comm;
        pp.checkers = p.checkers;
        pool_fabric = std::make_unique<PoolFabric>("pool", eq,
                                                   registry, pp);
        fabric = pool_fabric.get();
    }

    // --- DRAM controllers ---
    const DramTimingParams timing = DramTimingParams::ddr4_1600_22();
    for (unsigned d = 0; d < num_dimms; ++d) {
        const unsigned group = d / p.dimms_per_group;
        const unsigned slot = d % p.dimms_per_group;
        DimmGeometry geom;
        geom.per_rank_lanes = is_cxlg(d);
        geom.per_rank_cmd_bus = is_cxlg(d);
        DramControllerParams ctrl_params;
        ctrl_params.page_policy = p.page_policy;
        ctrl_params.checkers = p.checkers;
        controllers.push_back(std::make_unique<DramController>(
            "dimm" + std::to_string(d), eq, registry, geom, timing,
            ctrl_params));
        dimm_nodes.push_back(NodeId::dimmNode(group, slot));
    }

    // --- NDP modules ---
    NdpModuleParams np;
    np.num_pes = p.pes_per_module;
    np.pe_clock_ps = timing.t_ck_ps;
    np.max_inflight_tasks = p.max_inflight_tasks;
    np.checkers = p.checkers;
    pe_clock_ps = timing.t_ck_ps;

    std::vector<unsigned> partition_group;
    std::vector<std::vector<unsigned>> partition_primary;
    if (p.ddr_fabric) {
        // One NDP module per (customised) DIMM.
        for (unsigned d = 0; d < num_dimms; ++d) {
            ndp_nodes.push_back(dimm_nodes[d]);
            partition_group.push_back(d / p.dimms_per_group);
            partition_primary.push_back({d});
        }
    } else if (p.ndp_in_switch) {
        for (unsigned s = 0; s < p.num_groups; ++s) {
            ndp_nodes.push_back(NodeId::switchNode(s));
            partition_group.push_back(s);
            std::vector<unsigned> prim;
            for (unsigned d = 0; d < p.dimms_per_group; ++d)
                prim.push_back(s * p.dimms_per_group + d);
            partition_primary.push_back(std::move(prim));
        }
    } else {
        BEACON_ASSERT(!p.cxlg_dimms.empty(),
                      "BEACON-D style system needs CXLG-DIMMs");
        for (unsigned d : p.cxlg_dimms) {
            ndp_nodes.push_back(dimm_nodes.at(d));
            const unsigned sw = d / p.dimms_per_group;
            partition_group.push_back(sw);
            // Partition-local structures (multi-pass Bloom filters)
            // spread over the partition's whole switch: they exceed
            // a single DIMM at production scale (SMUFIN: ~2 TB).
            std::vector<unsigned> prim;
            for (unsigned i = 0; i < p.dimms_per_group; ++i)
                prim.push_back(sw * p.dimms_per_group + i);
            partition_primary.push_back(std::move(prim));
        }
    }
    inflight.assign(ndp_nodes.size(), 0);
    np.done_notify_delay = done_notify_delay_;
    for (unsigned part = 0; part < ndp_nodes.size(); ++part) {
        ndps.push_back(std::make_unique<NdpModule>(
            "ndp" + std::to_string(part), eq, registry, np,
            [this, part](const AccessRequest &req, Completion cb) {
                issueAccess(part, req, std::move(cb));
            }));
        ndps.back()->setTaskDoneFn([this, part] {
            ++completed_tasks;
            BEACON_ASSERT(inflight[part] > 0, "inflight underflow");
            --inflight[part];
            pump();
            if (slot_freed)
                slot_freed();
        });
    }

    // --- Atomic engines: one per switch/channel group, plus one
    //     local engine per partition ---
    for (unsigned s = 0; s < p.num_groups; ++s) {
        atomic_engines.push_back(std::make_unique<AtomicEngine>(
            "atomicSw" + std::to_string(s), eq, registry));
    }
    for (unsigned part = 0; part < ndps.size(); ++part) {
        atomic_engines.push_back(std::make_unique<AtomicEngine>(
            "atomicNdp" + std::to_string(part), eq, registry));
    }

    // --- Memory-management framework + layout ---
    std::vector<PoolDimm> inventory;
    for (unsigned d = 0; d < num_dimms; ++d) {
        PoolDimm dimm;
        dimm.node = dimm_nodes[d];
        dimm.kind =
            is_cxlg(d) ? DimmKind::Cxlg : DimmKind::Unmodified;
        dimm.geom = controllers[d]->device().geometry();
        inventory.push_back(dimm);
    }
    framework = std::make_unique<MemoryFramework>(inventory);

    policy_proto.placement_opt = p.opts.placement_mapping;
    // Replication rides on the pool's spare capacity; the DDR
    // baselines keep single copies (their design cannot lean on
    // unmodified-DIMM expansion, Section III).
    policy_proto.replicate_read_only =
        p.opts.placement_mapping && !p.ddr_fabric;
    policy_proto.coalesce_chips = std::max(1u, p.opts.coalesce_chips);
    policy_proto.cxlg_stripe_weight =
        std::max(1u, p.opts.cxlg_stripe_weight);
    policy_proto.reserved_dimms = p.rack_reserved_dimms;
    policy_proto.partitions = unsigned(ndps.size());
    policy_proto.partition_switch = partition_group;
    policy_proto.partition_primary = partition_primary;

    stat_dram_bytes = &registry.counter("system.dramBytesTotal");

    // Machine-level time series (per-tenant series are registered
    // by setTenantLayout / the orchestrator as tenants arrive).
    if (obs::Sampler *sampler = obsSampler()) {
        // Every link byte counter is named "<link>.bytes"; the sum
        // over them is total fabric traffic.
        sampler->addCounterRate("fabric_gbps", registry, ".bytes",
                                1e-9);
        sampler->addCounterRate("dram_gbps", registry,
                                "dramBytesTotal", 1e-9);
        // peBusyTotalTicks advances by (busy PEs * ps); divided by
        // the interval and the PE count it is mean utilisation.
        const double total_pes =
            double(ndps.size()) * double(p.pes_per_module);
        sampler->addCounterRate("pe_util", registry,
                                "peBusyTotalTicks",
                                1e-12 / std::max(1.0, total_pes));
    }
}

NdpSystem::~NdpSystem() = default;

PoolFabric &
NdpSystem::poolFabric()
{
    BEACON_ASSERT(pool_fabric,
                  "rack integration needs the CXL pool fabric");
    return *pool_fabric;
}

NodeId
NdpSystem::ndpNode(unsigned partition) const
{
    return ndp_nodes.at(partition);
}

// ---------------------------------------------------------------
// Memory path
// ---------------------------------------------------------------

void
NdpSystem::dimmDram(unsigned index, const ResolvedAccess &piece,
                    bool is_write, Completion done, std::uint64_t job)
{
    MemRequest req;
    req.coord = piece.coord;
    req.is_write = is_write;
    req.bytes = piece.bytes;
    req.bursts = std::max(1u, piece.bursts);
    req.job = job;
    req.on_complete = std::move(done);
    controllers.at(index)->enqueue(std::move(req));
}

const MemoryLayout &
NdpSystem::layoutFor(TenantId tenant) const
{
    if (tenant != untenanted_id) {
        auto it = tenant_layouts.find(tenant);
        BEACON_ASSERT(it != tenant_layouts.end(),
                      "access from unregistered tenant ", tenant);
        return *it->second;
    }
    BEACON_ASSERT(mem_layout,
                  "untenanted access without a workload layout");
    return *mem_layout;
}

Counter &
NdpSystem::tenantDramStat(TenantId tenant)
{
    auto it = tenant_dram_stats.find(tenant);
    if (it == tenant_dram_stats.end()) {
        Counter &counter = registry.counter(
            "system.tenant" + std::to_string(tenant.value()) +
                ".dramBytes");
        it = tenant_dram_stats.emplace(tenant, &counter).first;
    }
    return *it->second;
}

void
NdpSystem::setTenantLayout(TenantId tenant,
                           std::shared_ptr<MemoryLayout> layout)
{
    BEACON_ASSERT(tenant != untenanted_id,
                  "tenant 0 is the untenanted default");
    const bool known = tenant_layouts.count(tenant) != 0;
    tenant_layouts[tenant] = std::move(layout);
    if (obs::Sampler *sampler = obsSampler(); sampler && !known) {
        const std::string key = std::to_string(tenant.value());
        sampler->addCounterRate("tenant" + key + ".dram_gbps",
                                registry,
                                "tenant" + key + ".dramBytes",
                                1e-9);
    }
}

void
NdpSystem::dropTenantLayout(TenantId tenant)
{
    tenant_layouts.erase(tenant);
}

void
NdpSystem::stageEgress(EventCallback send)
{
    if (egress_delay_ == 0) {
        send();
        return;
    }
    eq.scheduleIn(egress_delay_, std::move(send), EventCat::Ndp);
}

void
NdpSystem::issueAccess(unsigned partition, const AccessRequest &req,
                       Completion done)
{
    accountDramBytes(req.tenant, req.bytes);
    const std::vector<ResolvedAccess> pieces =
        layoutFor(req.tenant).resolve(req.data_class, req.offset,
                                      req.bytes, partition);
    BEACON_ASSERT(!pieces.empty(), "access resolved to nothing");
    if (pieces.size() == 1) {
        issuePiece(partition, req, pieces[0], std::move(done));
        return;
    }
    // The pieces share one completion: the last to land fires it.
    struct FanIn
    {
        std::size_t remaining;
        Completion done;
    };
    auto fan_in =
        std::make_shared<FanIn>(FanIn{pieces.size(), std::move(done)});
    for (const ResolvedAccess &piece : pieces) {
        issuePiece(partition, req, piece, [fan_in](Tick t) {
            if (--fan_in->remaining == 0)
                fan_in->done(t);
        });
    }
}

void
NdpSystem::issuePiece(unsigned partition, const AccessRequest &req,
                      const ResolvedAccess &piece, Completion done)
{
    if (req.is_atomic) {
        atomicAccess(partition, req, piece, std::move(done));
        return;
    }
    const NodeId src = ndpNode(partition);
    const NodeId dst = piece.node;
    const bool fine = piece.bytes < Bytes{64};
    const std::uint64_t job = req.job;

    if (src == dst) {
        // BEACON-D/MEDAL local access: straight to the on-DIMM MC.
        dimmDram(piece.dimm_index, piece, req.is_write,
                 std::move(done), job);
        return;
    }
    if (req.is_write) {
        // Command + data one way; complete at DRAM write completion.
        stageEgress([this, src, dst, piece, fine, job,
                     done = std::move(done)]() mutable {
            fabric->send(src, dst, Bytes{16} + piece.bytes, fine,
                         untenanted_id, job,
                         [this, piece, job,
                          done = std::move(done)](Tick) mutable {
                             dimmDram(piece.dimm_index, piece, true,
                                      std::move(done), job);
                         });
        });
        return;
    }
    // Function shipping: execute the consuming step at the data and
    // return only its 8-byte result (possible when the target DIMM
    // itself hosts NDP logic, i.e., every DIMM of the DDR baselines
    // and the CXLG-DIMMs of BEACON-D).
    const bool target_has_ndp =
        std::find(p.cxlg_dimms.begin(), p.cxlg_dimms.end(),
                  piece.dimm_index) != p.cxlg_dimms.end();
    if (p.opts.function_shipping && target_has_ndp && fine &&
        workload) {
        const Tick remote_compute =
            cyclesToTicks(engineStepCycles(workload->engine()),
                          pe_clock_ps);
        stageEgress([this, src, dst, piece, remote_compute, job,
                     done = std::move(done)]() mutable {
            fabric->send(
                src, dst, Bytes{24}, true, untenanted_id, job,
                [this, src, dst, piece, remote_compute, job,
                 done = std::move(done)](Tick) mutable {
                    dimmDram(
                        piece.dimm_index, piece, false,
                        [this, src, dst, remote_compute, job,
                         done = std::move(done)](Tick) mutable {
                            eq.scheduleIn(
                                remote_compute,
                                [this, src, dst, job,
                                 done = std::move(done)]() mutable {
                                    fabric->send(dst, src, Bytes{8},
                                                 true, untenanted_id,
                                                 job, std::move(done));
                                },
                                EventCat::Ndp);
                        },
                        job);
                });
        });
        return;
    }
    // Remote read: request message, DRAM read, data response.
    stageEgress([this, src, dst, piece, fine, job,
                 done = std::move(done)]() mutable {
        fabric->send(
            src, dst, Bytes{16}, true, untenanted_id, job,
            [this, src, dst, piece, fine, job,
             done = std::move(done)](Tick) mutable {
                dimmDram(
                    piece.dimm_index, piece, false,
                    [this, src, dst, piece, fine, job,
                     done = std::move(done)](Tick) mutable {
                        fabric->send(dst, src,
                                     std::max(piece.bytes, Bytes{1}),
                                     fine, untenanted_id, job,
                                     std::move(done));
                    },
                    job);
            });
    });
}

void
NdpSystem::atomicAccess(unsigned partition, const AccessRequest &req,
                        const ResolvedAccess &piece, Completion done)
{
    const NodeId src = ndpNode(partition);
    const NodeId dimm_node = piece.node;
    const std::uint64_t job = req.job;
    // A unique key per logical word serialises racing updates.
    const std::uint64_t word_key =
        (std::uint64_t(unsigned(req.data_class)) << 56) ^ req.offset;

    // Local RMW: the partition's own engine, no fabric involved.
    if (src == dimm_node) {
        AtomicEngine &engine =
            *atomic_engines.at(p.num_groups + partition);
        engine.perform(
            word_key,
            [this, piece, job](Completion k) {
                dimmDram(piece.dimm_index, piece, false, std::move(k),
                         job);
            },
            [this, piece, job](Completion k) {
                dimmDram(piece.dimm_index, piece, true, std::move(k),
                         job);
            },
            std::move(done));
        return;
    }

    if (p.ddr_fabric) {
        // Ship the op to the owning DIMM's NDP module, RMW locally
        // there, acknowledge back.
        fabric->send(
            src, dimm_node, Bytes{16}, true, untenanted_id, 0,
            [this, src, dimm_node, piece, word_key, job,
             done = std::move(done)](Tick) mutable {
                AtomicEngine &engine = *atomic_engines.at(
                    p.num_groups + piece.dimm_index % ndps.size());
                engine.perform(
                    word_key,
                    [this, piece, job](Completion k) {
                        dimmDram(piece.dimm_index, piece, false,
                                 std::move(k), job);
                    },
                    [this, piece, job](Completion k) {
                        dimmDram(piece.dimm_index, piece, true,
                                 std::move(k), job);
                    },
                    [this, src, dimm_node,
                     done = std::move(done)](Tick) mutable {
                        fabric->send(dimm_node, src, Bytes{8}, true,
                                     untenanted_id, 0, std::move(done));
                    });
            });
        return;
    }

    // CXL pool: the home switch's Atomic Engine performs the RMW
    // (Fig. 7); the switch's MC reaches the DIMM over its link.
    const unsigned home_sw = dimm_node.sw;
    const NodeId sw_node = NodeId::switchNode(home_sw);
    AtomicEngine &engine = *atomic_engines.at(home_sw);

    auto perform = [this, sw_node, piece, word_key, src, job, &engine,
                    done = std::move(done)]() mutable {
        const bool co_located = src == sw_node;
        engine.perform(
            word_key,
            [this, sw_node, piece, job](Completion k) {
                fabric->send(
                    sw_node, piece.node, Bytes{8}, true, untenanted_id,
                    job,
                    [this, piece, sw_node, job,
                     k = std::move(k)](Tick) mutable {
                        dimmDram(
                            piece.dimm_index, piece, false,
                            [this, piece, sw_node, job,
                             k = std::move(k)](Tick) mutable {
                                fabric->send(piece.node, sw_node,
                                             piece.bytes, true,
                                             untenanted_id, job,
                                             std::move(k));
                            },
                            job);
                    });
            },
            [this, sw_node, piece, job](Completion k) {
                fabric->send(sw_node, piece.node,
                             Bytes{8} + piece.bytes, true,
                             untenanted_id, job,
                             [this, piece, job,
                              k = std::move(k)](Tick) mutable {
                                 dimmDram(piece.dimm_index, piece,
                                          true, std::move(k), job);
                             });
            },
            [this, sw_node, src, co_located,
             done = std::move(done)](Tick t) mutable {
                if (co_located) {
                    done(t);
                } else {
                    fabric->send(sw_node, src, Bytes{8}, true,
                                 untenanted_id, 0, std::move(done));
                }
            });
    };

    if (src == sw_node) {
        perform();
    } else {
        stageEgress([this, src, sw_node,
                     perform = std::move(perform)]() mutable {
            fabric->send(src, sw_node, Bytes{16}, true, untenanted_id,
                         0,
                         [perform = std::move(perform)](Tick) mutable {
                             perform();
                         });
        });
    }
}

// ---------------------------------------------------------------
// Task driver
// ---------------------------------------------------------------

void
NdpSystem::pump()
{
    while (next_task < target_tasks && hasFreeSlot())
        serveTask(workload->makeTask(next_task++, ctx), {});
}

bool
NdpSystem::hasFreeSlot() const
{
    for (unsigned part = 0; part < ndps.size(); ++part) {
        if (inflight[part] < p.max_inflight_tasks)
            return true;
    }
    return false;
}

bool
NdpSystem::serveTask(TaskPtr task, NdpModule::TaskDoneFn on_done)
{
    for (unsigned probe = 0; probe < ndps.size(); ++probe) {
        const unsigned part =
            (next_partition + probe) % unsigned(ndps.size());
        if (inflight[part] >= p.max_inflight_tasks)
            continue;
        ++inflight[part];
        next_partition = (part + 1) % unsigned(ndps.size());
        // Input streaming: the task (read + metadata) arrives from
        // the host, attributed to its tenant, before it can start.
        const TenantId tenant = task->tenant();
        const std::uint64_t job = task->jobId();
        NdpModule *module = ndps[part].get();
        fabric->send(NodeId::host(), ndp_nodes[part], Bytes{32}, false,
                     tenant, job,
                     [module, task = std::move(task),
                      on_done = std::move(on_done)](Tick) mutable {
                         module->submit(std::move(task),
                                        std::move(on_done));
                     });
        return true;
    }
    return false;
}

void
NdpSystem::drainUntil(std::uint64_t target)
{
    while (completed_tasks < target) {
        if (!eq.runOne())
            BEACON_PANIC("event queue drained with ",
                         completed_tasks, "/", target,
                         " tasks complete");
    }
}

void
NdpSystem::mergeFilters()
{
    // Ring all-reduce of the partition-local filters: P-1 rounds of
    // filter-sized transfers between neighbouring partitions. The
    // filter size is scaled by the workload's sampling fraction so
    // subsampled runs keep the merge in proportion.
    const unsigned parts = unsigned(ndps.size());
    if (parts <= 1)
        return;
    std::uint64_t filter_bytes = 0;
    for (const StructureSpec &s : workload->structures()) {
        if (s.cls == DataClass::BloomLocal)
            filter_bytes = s.bytes.value();
    }
    if (filter_bytes == 0)
        return;
    filter_bytes = std::max<std::uint64_t>(
        1, std::uint64_t(double(filter_bytes) *
                         workload->sampleFraction()));

    unsigned pending = 0;
    bool done = false;
    auto on_done = [&pending, &done](Tick) {
        if (--pending == 0)
            done = true;
    };
    for (unsigned round = 1; round < parts; ++round) {
        for (unsigned part = 0; part < parts; ++part) {
            const unsigned next = (part + round) % parts;
            ++pending;
            fabric->send(ndp_nodes[part], ndp_nodes[next],
                         Bytes{filter_bytes}, false, untenanted_id, 0,
                         on_done);
        }
    }
    while (!done) {
        if (!eq.runOne())
            BEACON_PANIC("filter merge stalled");
    }
}

RunResult
NdpSystem::run(std::size_t num_tasks)
{
    BEACON_ASSERT(workload,
                  "run() needs a bound workload; service-mode "
                  "systems are driven through serveTask()");
    const std::size_t total =
        num_tasks == 0 ? workload->numTasks()
                       : std::min(num_tasks, workload->numTasks());
    target_tasks = total;

    const bool multi_pass =
        workload->multiPassCapable() && !p.opts.kmc_single_pass;

    ctx.pass = 0;
    next_task = 0;
    completed_tasks = 0;
    pump();
    drainUntil(total);

    if (multi_pass) {
        mergeFilters();
        ctx.pass = 1;
        next_task = 0;
        completed_tasks = 0;
        pump();
        drainUntil(total);
    }

    const Tick end = eq.now();

    RunResult result = machineResult(end);
    result.workload = workload->name();
    result.tasks = total;
    result.tasks_per_second =
        result.seconds > 0 ? double(total) / result.seconds : 0;
    return result;
}

RunResult
NdpSystem::machineResult(Tick end)
{
    // End-of-run verification: the run must leave every checker's
    // shadow model balanced.
    if (p.checkers.enabled) {
        for (const auto &ctrl : controllers)
            ctrl->finalizeCheck();
        if (pool_fabric)
            pool_fabric->finalizeCheck();
        for (const auto &ndp : ndps)
            ndp->finalizeCheck();
    }

    RunResult result;
    result.system = p.name;
    result.ticks = end;
    result.seconds = ticksToSeconds(end);

    // --- Energy ---
    for (const auto &ctrl : controllers) {
        result.energy.dram_pj +=
            computeDramEnergy(ctrl->device(), end, p.dram_energy)
                .totalPj();
        result.dram_reads += ctrl->readsCompleted();
        result.dram_writes += ctrl->writesCompleted();
    }
    if (!p.ideal_comm) {
        if (pool_fabric) {
            result.energy.comm_pj +=
                commEnergyPj(pool_fabric->dimmLinkBytes() +
                                 pool_fabric->hostLinkBytes(),
                             p.comm_energy.cxl_pj_per_bit);
            result.energy.comm_pj +=
                commEnergyPj(pool_fabric->switchBusBytes(),
                             p.comm_energy.bus_pj_per_bit);
        } else {
            result.energy.comm_pj += commEnergyPj(
                ddr_fabric->totalWireBytes(),
                p.comm_energy.ddr_pj_per_bit);
        }
    }
    Tick pe_busy = 0;
    for (const auto &ndp : ndps)
        pe_busy += ndp->peBusyTicks();
    result.energy.pe_pj = peEnergyPj(
        peOverheadFor(p.pe_architecture), pe_busy, end,
        p.pes_per_module * unsigned(ndps.size()));

    result.wire_bytes = fabric->totalWireBytes();
    result.host_round_trips =
        pool_fabric ? pool_fabric->hostRoundTrips() : 0;

    // --- Per-chip access distribution (Fig. 13) ---
    const bool have_cxlg = !p.cxlg_dimms.empty();
    std::vector<double> chips;
    for (unsigned d = 0; d < controllers.size(); ++d) {
        const bool custom =
            std::find(p.cxlg_dimms.begin(), p.cxlg_dimms.end(), d) !=
            p.cxlg_dimms.end();
        if (have_cxlg && !custom)
            continue;
        const auto &per_chip =
            controllers[d]->device().chipAccesses();
        if (chips.size() < per_chip.size())
            chips.resize(per_chip.size(), 0);
        for (std::size_t c = 0; c < per_chip.size(); ++c)
            chips[c] += double(per_chip[c]);
    }
    result.chip_accesses = chips;
    double mean = 0;
    for (double v : chips)
        mean += v;
    mean = chips.empty() ? 0 : mean / double(chips.size());
    if (mean > 0) {
        double acc = 0;
        for (double v : chips)
            acc += (v - mean) * (v - mean);
        result.chip_access_cov =
            std::sqrt(acc / double(chips.size())) / mean;
    }
    return result;
}

} // namespace beacon
