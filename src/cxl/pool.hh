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
 *
 * Each flushed batch becomes one WireUnit: a plain struct holding
 * the planned hops (at most seven), the index of the next one, the
 * wire bytes, the payloads and their jobs. The fabric advances it
 * hop by hop, moving it into each hop's event as a std::unique_ptr.
 */

#ifndef BEACON_CXL_POOL_HH
#define BEACON_CXL_POOL_HH

#include <array>
#include <cstdint>
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

    /** Verification switch; arms the link checker. */
    CheckerConfig checkers;
};

/**
 * The pool fabric: owns every link, switch bus, and packer, and
 * routes messages between endpoints.
 */
class PoolFabric : public SimObject, public Fabric
{
  public:
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
     * Send @p useful_bytes from @p src to @p dst (see Fabric::send).
     * The payload goes to the (src, dst) Data Packer with its job id;
     * when a RequestTrace is attached to the event queue, every hop
     * of the wire unit that carries it records a Link/Switch
     * component span for each job riding in that unit. Zero extra
     * work when request tracing is off.
     */
    void send(NodeId src, NodeId dst, Bytes useful_bytes,
              bool fine_grained, TenantId tenant, std::uint64_t job,
              Completion deliver) override;

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

    /**
     * One packed wire unit in flight: its route, its payloads and
     * the jobs riding in them. advance() walks it hop by hop, and
     * each hop's event owns the unit until the hop ends.
     */
    struct WireUnit
    {
        /** One resource on the route. */
        struct Hop
        {
            enum class Kind : std::uint8_t { Link, Bus, Delay };
            Kind kind = Kind::Delay;
            LinkDir dir = LinkDir::Downstream; //!< Link
            unsigned sw = 0;                   //!< Bus
            CxlLink *link = nullptr;           //!< Link
            Tick delay = 0;                    //!< Delay
        };

        /** DIMM link, bus and host link up, host processing, then
         *  host link, bus and DIMM link down. */
        static constexpr std::size_t max_hops = 7;

        std::array<Hop, max_hops> hops;
        std::size_t num_hops = 0;
        std::size_t next = 0; //!< index of the next hop to start
        Bytes wire;
        DataPacker::Batch batch;
        /** Distinct nonzero jobs of the batch; filled only while a
         *  RequestTrace is attached. */
        std::vector<std::uint64_t> jobs;
        Tick hop_start = 0; //!< when the current hop began

        void
        push(const Hop &hop)
        {
            hops.at(num_hops++) = hop;
        }
    };

    /** Plan the route of a packed batch and start walking it. */
    void routeWire(NodeId src, NodeId dst, Bytes wire,
                   DataPacker::Batch batch);

    /** Record the spans of the hop that just ended (if any), then
     *  start the next hop, or deliver the batch after the last. */
    void advance(std::unique_ptr<WireUnit> unit);

    /** Reserve switch @p sw's bus for @p bytes; returns when the
     *  hop ends (transfer plus in-switch routing latency). */
    Tick hopBus(unsigned sw, Bytes bytes);

    /** Fire every payload's delivery, in submission order. */
    void deliverBatch(DataPacker::Batch &batch);

    DataPacker &packerFor(NodeId src, NodeId dst);

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
