/**
 * @file
 * The CXL memory-pool fabric.
 *
 * Models the communication substrate of Fig. 4: the host connects to
 * CXL-Switches over x16 links; each switch connects to its DIMMs over
 * x8 links and contains a Switch-Bus (managed by the Bus Controller)
 * for in-switch routing between ports and the Switch-Logic.
 *
 * Two coherence routings are supported (Fig. 9):
 *  - host bias (naive): every access to an unmodified CXL-DIMM makes
 *    a round trip through the host for coherence resolution;
 *  - device bias (the paper's "memory access optimization"): the
 *    switch routes directly between its ports.
 *
 * Data Packers sit at every injection endpoint (CXL-Interface of a
 * CXLG-DIMM, Switch-Logic, host interface) and batch fine-grained
 * payloads per destination before the transfer.
 */

#ifndef BEACON_CXL_POOL_HH
#define BEACON_CXL_POOL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "check/checker_config.hh"
#include "check/link_checker.hh"
#include "cxl/bandwidth_server.hh"
#include "cxl/data_packer.hh"
#include "cxl/fabric.hh"
#include "cxl/link.hh"
#include "cxl/node.hh"
#include "sim/sim_object.hh"

namespace beacon
{

/** Topology and policy knobs for the pool fabric. */
struct PoolParams
{
    unsigned num_switches = 2;
    unsigned dimms_per_switch = 4;

    LinkParams dimm_link{32.0, 25000, false};  //!< x8 PCIe5 per DIMM
    LinkParams host_link{64.0, 30000, false};  //!< x16 PCIe5 per switch

    double switch_bus_gbps = 256.0;  //!< Switch-Bus aggregate rate
    Tick switch_latency = 15000;     //!< in-switch routing, 15 ns
    Tick host_latency = 80000;       //!< host coherence engine, 80 ns

    /** Memory access optimization (Fig. 9 b/d) when true. */
    bool device_bias = false;

    PackerParams packer;

    /** Idealized communication: infinite bandwidth, zero latency. */
    bool ideal = false;

    /** Verification toggles; cxl_link arms the link checker. */
    CheckerConfig checkers;
};

/**
 * The pool fabric: owns every link, switch bus, and packer, and
 * routes messages between endpoints.
 */
class PoolFabric : public SimObject, public Fabric
{
  public:
    using Deliver = Fabric::Deliver;

    PoolFabric(const std::string &name, EventQueue &eq,
               StatRegistry &stats, const PoolParams &params);

    const PoolParams &params() const { return p; }

    /** Total number of DIMMs in the pool. */
    unsigned
    numDimms() const
    {
        return p.num_switches * p.dimms_per_switch;
    }

    /**
     * Send @p useful_bytes from @p src to @p dst, accounted to
     * @p tenant at the injection point. Fine-grained payloads are
     * eligible for packing. @p deliver fires when the payload has
     * fully arrived.
     */
    void sendTagged(NodeId src, NodeId dst,
                    Bytes useful_bytes, bool fine_grained,
                    TenantId tenant, Deliver deliver) override;

    /**
     * sendTagged() carrying a request context: when a RequestTrace
     * is attached to the event queue, every hop of the routed wire
     * unit records a Link/Switch component span for @p job (and for
     * every other job whose payload the Data Packer batched into the
     * same unit). Zero extra work when request tracing is off.
     */
    void sendCtx(NodeId src, NodeId dst, Bytes useful_bytes,
                 bool fine_grained, TenantId tenant,
                 std::uint64_t job, Deliver deliver) override;

    /** Bytes moved over DIMM links, host links, and switch buses. */
    Bytes dimmLinkBytes() const;
    Bytes hostLinkBytes() const;
    Bytes switchBusBytes() const;
    Bytes totalWireBytes() const override;

    /** Messages that traversed the host for coherence resolution. */
    std::uint64_t hostRoundTrips() const { return host_round_trips; }

    /** Access to a link for inspection in tests. */
    const CxlLink &dimmLink(unsigned sw, unsigned dimm) const;
    const CxlLink &hostLink(unsigned sw) const;

    /** The link checker, or nullptr when not armed. */
    const CxlLinkChecker *checker() const { return link_checker.get(); }

    /**
     * Register an endpoint with the fabric. The constructor registers
     * the built-in topology (host 0, every switch, every DIMM); rack
     * machines register extra hosts and re-register hot-added DIMMs.
     * Registering a node that is already present is a hard error.
     */
    void registerNode(NodeId node);

    /**
     * Remove an endpoint (hot-remove path). The node must currently
     * be registered.
     */
    void unregisterNode(NodeId node);

    /** True when @p node is currently registered with the fabric. */
    bool
    isRegistered(NodeId node) const
    {
        return registered_nodes.count(node.key()) != 0;
    }

    /**
     * End-of-run validation: message balance and per-channel
     * bandwidth conservation. No-op when the checker is off.
     */
    void finalizeCheck() const;

  private:
    struct SwitchState
    {
        std::unique_ptr<BandwidthServer> bus;
        std::vector<std::unique_ptr<CxlLink>> dimm_links;
        std::unique_ptr<CxlLink> host_link;
    };

    /** Route an already-packed wire unit along the physical path. */
    void routeWire(NodeId src, NodeId dst, Bytes wire_bytes,
                   std::vector<Deliver> batch);

    /** Hop helpers: schedule continuation after a resource. */
    void hopBus(unsigned sw, Bytes bytes,
                std::function<void()> next);
    void hopLink(CxlLink &link, LinkDir dir, Bytes bytes,
                 std::function<void()> next);

    DataPacker &packerFor(NodeId src, NodeId dst);

    /**
     * Per-(src, dst) FIFO of job ids, parallel to the Data Packer's
     * staged payloads: sendCtx() pushes one entry per submitted
     * payload (0 = no context) and routeWire() pops one per Deliver
     * in the flushed batch, so batching never misattributes a span.
     * Only populated while a RequestTrace is attached.
     */
    std::map<std::uint64_t, std::deque<std::uint64_t>> pending_jobs;

    PoolParams p;
    std::vector<SwitchState> switches;
    std::map<std::uint64_t, std::unique_ptr<DataPacker>> packers;
    std::set<std::uint32_t> registered_nodes;
    std::unique_ptr<CxlLinkChecker> link_checker;
    std::vector<unsigned> bus_channels; //!< checker id per switch bus

    std::uint64_t host_round_trips = 0;
    Counter &stat_messages;
    Counter &stat_host_round_trips;
    /** Untenanted ingress total; per-tenant counters must sum to
     *  exactly this value (conservation, test-enforced). */
    Counter &stat_useful_bytes;
    Counter &tenantBytesStat(TenantId tenant);
    std::map<TenantId, Counter *> tenant_bytes_stats;
};

} // namespace beacon

#endif // BEACON_CXL_POOL_HH
