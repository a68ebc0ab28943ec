/**
 * @file
 * DDR-channel fabric for the MEDAL/NEST baselines.
 *
 * The previous DDR-DIMM NDP accelerators (Fig. 1) communicate over
 * the host's DDR memory channels: a message from DIMM A to DIMM B
 * occupies A's channel up to the host memory controller, is
 * store-forwarded there, and then occupies B's channel (the same
 * physical channel when both DIMMs share it — the communication
 * bottleneck the paper identifies). There is no packing: transfers
 * move in 64-byte granules.
 *
 * NodeId reuse: `sw` is the channel index, `dimm` the DIMM's slot on
 * the channel; Switch nodes are not used.
 */

#ifndef BEACON_ACCEL_DDR_FABRIC_HH
#define BEACON_ACCEL_DDR_FABRIC_HH

#include <map>
#include <memory>
#include <vector>

#include "cxl/bandwidth_server.hh"
#include "cxl/fabric.hh"
#include "sim/sim_object.hh"

namespace beacon
{

/** DDR fabric configuration. */
struct DdrFabricParams
{
    unsigned num_channels = 4;
    unsigned dimms_per_channel = 2;
    double channel_gb_per_s = 12.8;  //!< DDR4-1600, 64-bit bus
    Tick channel_latency = 30000;    //!< 30 ns bus + protocol
    Tick host_forward_latency = 50000; //!< host MC store-forward
    /** The customised NDP-DIMM protocol moves fine-grained payloads
     *  in burst-chopped 32 B slots on the DDR bus. */
    unsigned granule_bytes = 32;
    /** Idealized communication (Fig. 3). */
    bool ideal = false;
};

/** Host-mastered DDR-channel fabric. */
class DdrFabric : public SimObject, public Fabric
{
  public:
    DdrFabric(const std::string &name, EventQueue &eq,
              StatRegistry &stats, const DdrFabricParams &params);

    /** No packing and no request tracing: @p fine_grained and
     *  @p job do not change what happens. */
    void send(NodeId src, NodeId dst, Bytes useful_bytes,
              bool fine_grained, TenantId tenant, std::uint64_t job,
              Completion deliver) override;

    Bytes totalWireBytes() const override;

    const DdrFabricParams &params() const { return p; }

    /** Bytes moved on one channel. */
    Bytes channelBytes(unsigned channel) const;

  private:
    /** One hop over a channel; @p next runs at arrival. */
    void hopChannel(unsigned channel, Bytes bytes,
                    EventCallback next);

    DdrFabricParams p;
    std::vector<std::unique_ptr<BandwidthServer>> channels;
    Counter &stat_messages;
    Counter &stat_useful_bytes;
    Counter &tenantBytesStat(TenantId tenant);
    std::map<TenantId, Counter *> tenant_bytes_stats;
};

} // namespace beacon

#endif // BEACON_ACCEL_DDR_FABRIC_HH
