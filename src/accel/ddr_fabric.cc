#include "ddr_fabric.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace beacon
{

DdrFabric::DdrFabric(const std::string &name, EventQueue &eq,
                     StatRegistry &stats,
                     const DdrFabricParams &params)
    : SimObject(name, eq, stats),
      p(params),
      stat_messages(stat("messages")),
      stat_useful_bytes(stat("usefulBytesTotal"))
{
    for (unsigned c = 0; c < p.num_channels; ++c) {
        channels.push_back(std::make_unique<BandwidthServer>(
            p.ideal ? -1.0 : p.channel_gb_per_s));
    }
}

Bytes
DdrFabric::totalWireBytes() const
{
    Bytes total;
    for (const auto &ch : channels)
        total += ch->totalBytes();
    return total;
}

Bytes
DdrFabric::channelBytes(unsigned channel) const
{
    return channels.at(channel)->totalBytes();
}

void
DdrFabric::hopChannel(unsigned channel, Bytes bytes,
                      EventCallback next)
{
    const Tick done = channels.at(channel)->accept(curTick(), bytes);
    const Tick latency = p.ideal ? 0 : p.channel_latency;
    eq.schedule(done + latency, std::move(next), EventCat::Cxl);
}

Counter &
DdrFabric::tenantBytesStat(TenantId tenant)
{
    auto it = tenant_bytes_stats.find(tenant);
    if (it == tenant_bytes_stats.end()) {
        Counter &counter =
            stat("tenant" + std::to_string(tenant.value()) + ".usefulBytes");
        it = tenant_bytes_stats.emplace(tenant, &counter).first;
    }
    return *it->second;
}

void
DdrFabric::send(NodeId src, NodeId dst, Bytes useful_bytes,
                bool /*fine_grained*/, TenantId tenant,
                std::uint64_t /*job*/, Completion deliver)
{
    BEACON_ASSERT(!src.isSwitch() && !dst.isSwitch(),
                  "DDR fabric has no switches");
    ++stat_messages;
    stat_useful_bytes += double(useful_bytes.value());
    tenantBytesStat(tenant) += double(useful_bytes.value());
    const Bytes wire = Bytes{
        roundUp<std::uint64_t>(useful_bytes.value(), p.granule_bytes)};
    EventCallback finish = [this, deliver = std::move(deliver)]() mutable {
        deliver(curTick());
    };

    if (src == dst) {
        eq.scheduleIn(0, std::move(finish), EventCat::Cxl);
        return;
    }

    const Tick host_fwd = p.ideal ? 0 : p.host_forward_latency;
    if (src.isHost()) {
        hopChannel(dst.sw, wire, std::move(finish));
        return;
    }
    if (dst.isHost()) {
        hopChannel(src.sw, wire, std::move(finish));
        return;
    }
    // DIMM-to-DIMM: up src's channel, host store-forward, down
    // dst's channel (the same channel twice when they share it).
    hopChannel(src.sw, wire,
               [this, dst, wire, host_fwd,
                fn = std::move(finish)]() mutable {
                   eq.scheduleIn(host_fwd,
                                 [this, dst, wire,
                                  fn = std::move(fn)]() mutable {
                       hopChannel(dst.sw, wire, std::move(fn));
                   }, EventCat::Cxl);
               });
}

} // namespace beacon
