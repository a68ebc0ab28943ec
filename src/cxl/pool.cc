#include "pool.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/request_trace.hh"

namespace beacon
{

PoolFabric::PoolFabric(const std::string &name, EventQueue &eq,
                       StatRegistry &stats, const PoolParams &params)
    : SimObject(name, eq, stats),
      p(params),
      stat_messages(stat("messages")),
      stat_host_round_trips(stat("hostRoundTrips")),
      stat_useful_bytes(stat("usefulBytesTotal"))
{
    if (p.ideal) {
        p.dimm_link.ideal = true;
        p.host_link.ideal = true;
        p.switch_latency = 0;
        p.host_latency = 0;
    }
    if (p.checkers.enabled)
        link_checker = std::make_unique<CxlLinkChecker>(name);
    switches.resize(p.num_switches);
    for (unsigned s = 0; s < p.num_switches; ++s) {
        SwitchState &sw = switches[s];
        sw.bus = std::make_unique<BandwidthServer>(
            p.ideal ? -1.0 : p.switch_bus_gbps);
        sw.host_link = std::make_unique<CxlLink>(
            name + ".hostLink" + std::to_string(s), eq, stats,
            p.host_link);
        for (unsigned d = 0; d < p.dimms_per_switch; ++d) {
            sw.dimm_links.push_back(std::make_unique<CxlLink>(
                name + ".sw" + std::to_string(s) + ".dimmLink" +
                    std::to_string(d),
                eq, stats, p.dimm_link));
        }
        if (link_checker) {
            sw.host_link->attachChecker(*link_checker);
            for (auto &link : sw.dimm_links)
                link->attachChecker(*link_checker);
            bus_channels.push_back(link_checker->registerChannel(
                name + ".sw" + std::to_string(s) + ".bus"));
        }
    }
    registerNode(NodeId::host());
    for (unsigned s = 0; s < p.num_switches; ++s) {
        registerNode(NodeId::switchNode(s));
        for (unsigned d = 0; d < p.dimms_per_switch; ++d)
            registerNode(NodeId::dimmNode(s, d));
    }
}

void
PoolFabric::registerNode(NodeId node)
{
    const auto [it, inserted] = registered_nodes.insert(node.key());
    (void)it;
    BEACON_CHECK(inserted, "duplicate fabric registration of node ",
                 node.str());
}

void
PoolFabric::unregisterNode(NodeId node)
{
    BEACON_CHECK(registered_nodes.erase(node.key()) == 1,
                 "unregistering unknown fabric node ", node.str());
}

const CxlLink &
PoolFabric::dimmLink(unsigned sw, unsigned dimm) const
{
    return *switches.at(sw).dimm_links.at(dimm);
}

const CxlLink &
PoolFabric::hostLink(unsigned sw) const
{
    return *switches.at(sw).host_link;
}

Bytes
PoolFabric::dimmLinkBytes() const
{
    Bytes total;
    for (const SwitchState &sw : switches)
        for (const auto &link : sw.dimm_links)
            total += link->totalBytes();
    return total;
}

Bytes
PoolFabric::hostLinkBytes() const
{
    Bytes total;
    for (const SwitchState &sw : switches)
        total += sw.host_link->totalBytes();
    return total;
}

Bytes
PoolFabric::switchBusBytes() const
{
    Bytes total;
    for (const SwitchState &sw : switches)
        total += sw.bus->totalBytes();
    return total;
}

Bytes
PoolFabric::totalWireBytes() const
{
    return dimmLinkBytes() + hostLinkBytes() + switchBusBytes();
}

DataPacker &
PoolFabric::packerFor(NodeId src, NodeId dst)
{
    const std::uint64_t key =
        (std::uint64_t(src.key()) << 32) | dst.key();
    auto it = packers.find(key);
    if (it == packers.end()) {
        auto packer = std::make_unique<DataPacker>(
            eq, p.packer,
            [this, src, dst](Bytes wire, DataPacker::Batch batch) {
                routeWire(src, dst, wire, std::move(batch));
            });
        it = packers.emplace(key, std::move(packer)).first;
    }
    return *it->second;
}

Counter &
PoolFabric::tenantBytesStat(TenantId tenant)
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
PoolFabric::send(NodeId src, NodeId dst, Bytes useful_bytes,
                 bool fine_grained, TenantId tenant, std::uint64_t job,
                 Completion deliver)
{
    ++stat_messages;
    stat_useful_bytes += double(useful_bytes.value());
    tenantBytesStat(tenant) += double(useful_bytes.value());
    if (link_checker)
        link_checker->onSubmit(curTick());
    packerFor(src, dst).submit(useful_bytes, fine_grained, job,
                               std::move(deliver));
}

Tick
PoolFabric::hopBus(unsigned sw, Bytes bytes)
{
    const Tick depart = curTick();
    const Tick done = switches[sw].bus->accept(depart, bytes);
    if (link_checker) {
        link_checker->onTransfer(bus_channels[sw], depart, done,
                                 done + p.switch_latency, bytes,
                                 switches[sw].bus->rateGBps(),
                                 switches[sw].bus->ideal());
    }
    return done + p.switch_latency;
}

void
PoolFabric::finalizeCheck() const
{
    // A drained event queue must leave no payload staged in any Data
    // Packer: the flush timeout is a scheduled event, so a stranded
    // payload means the timeout was lost (or the run ended before
    // the queue drained) and its delivery callback never fired.
    for (const auto &[key, packer] : packers) {
        BEACON_ASSERT(packer->pendingCount() == 0,
                      "Data Packer stranded ", packer->pendingCount(),
                      " staged payload(s) at end of run");
    }
    if (!link_checker)
        return;
    link_checker->finalize();
    for (unsigned s = 0; s < switches.size(); ++s) {
        const SwitchState &sw = switches[s];
        sw.host_link->checkConservation();
        for (const auto &link : sw.dimm_links)
            link->checkConservation();
        if (!sw.bus->ideal()) {
            link_checker->checkBusyTicks(bus_channels[s],
                                         sw.bus->busyTicks());
        }
    }
}

void
PoolFabric::deliverBatch(DataPacker::Batch &batch)
{
    const Tick t = curTick();
    for (DataPacker::Payload &payload : batch) {
        if (link_checker)
            link_checker->onDeliver(t);
        payload.deliver(t);
    }
}

void
PoolFabric::routeWire(NodeId src, NodeId dst, Bytes wire,
                      DataPacker::Batch batch)
{
    if (src == dst) {
        eq.scheduleIn(0,
                      [this, batch = std::move(batch)]() mutable {
                          deliverBatch(batch);
                      },
                      EventCat::Cxl);
        return;
    }

    auto unit = std::make_unique<WireUnit>();
    unit->wire = wire;
    if (eq.requestTrace() != nullptr) {
        // Request-scoped attribution: each distinct job riding in the
        // batch gets a component span per hop (see advance()).
        for (const DataPacker::Payload &payload : batch) {
            if (payload.job != 0 &&
                std::find(unit->jobs.begin(), unit->jobs.end(),
                          payload.job) == unit->jobs.end()) {
                unit->jobs.push_back(payload.job);
            }
        }
    }
    unit->batch = std::move(batch);

    const bool src_is_host = src.isHost();
    const bool dst_is_host = dst.isHost();
    const unsigned ssw = src_is_host ? 0 : src.sw;
    const unsigned dsw = dst_is_host ? 0 : dst.sw;
    const bool cross_fabric =
        src_is_host || dst_is_host || ssw != dsw;
    // The host is involved whenever the message leaves its switch, or
    // (host-bias mode) whenever it targets pooled device memory and
    // the host must resolve coherence (Fig. 9 a/c).
    const bool needs_host_hop = !src_is_host && !dst_is_host &&
                                (!p.device_bias || ssw != dsw);
    const bool full_coherence = needs_host_hop && !p.device_bias;

    // The ordered route; each hop reserves one resource.
    using Hop = WireUnit::Hop;
    if (src.isDimm()) {
        unit->push({Hop::Kind::Link, LinkDir::Upstream, 0,
                    switches[ssw].dimm_links[src.dimm].get(), 0});
    }
    if (!src_is_host)
        unit->push({Hop::Kind::Bus, LinkDir::Upstream, ssw, nullptr, 0});
    if (cross_fabric || needs_host_hop) {
        if (!src_is_host) {
            unit->push({Hop::Kind::Link, LinkDir::Upstream, 0,
                        switches[ssw].host_link.get(), 0});
        }
        // Host processing: full coherence resolution latency when the
        // host owns the access, pure forwarding latency otherwise.
        unit->push({Hop::Kind::Delay, LinkDir::Upstream, 0, nullptr,
                    full_coherence ? p.host_latency
                                   : p.host_latency / 4});
        if (full_coherence) {
            ++host_round_trips;
            ++stat_host_round_trips;
        }
        if (!dst_is_host) {
            unit->push({Hop::Kind::Link, LinkDir::Downstream, 0,
                        switches[dsw].host_link.get(), 0});
            unit->push({Hop::Kind::Bus, LinkDir::Downstream, dsw,
                        nullptr, 0});
        }
    }
    if (dst.isDimm()) {
        unit->push({Hop::Kind::Link, LinkDir::Downstream, 0,
                    switches[dsw].dimm_links[dst.dimm].get(), 0});
    }
    advance(std::move(unit));
}

void
PoolFabric::advance(std::unique_ptr<WireUnit> unit)
{
    if (unit->next > 0 && !unit->jobs.empty()) {
        // The finished hop's full residency (queueing + serialisation
        // + propagation) is a Link or Switch component span for every
        // riding job; host processing counts as Switch.
        if (obs::RequestTrace *rt = eq.requestTrace()) {
            const obs::SpanKind kind =
                unit->hops[unit->next - 1].kind ==
                        WireUnit::Hop::Kind::Link
                    ? obs::SpanKind::Link
                    : obs::SpanKind::Switch;
            for (const std::uint64_t job : unit->jobs)
                rt->recordSpan(job, kind, unit->hop_start, curTick());
        }
    }
    if (unit->next == unit->num_hops) {
        deliverBatch(unit->batch);
        return;
    }
    const WireUnit::Hop hop = unit->hops[unit->next++];
    unit->hop_start = curTick();
    const Bytes wire = unit->wire;
    switch (hop.kind) {
      case WireUnit::Hop::Kind::Link:
        hop.link->send(hop.dir, wire,
                       [this, unit = std::move(unit)](Tick) mutable {
                           advance(std::move(unit));
                       });
        break;
      case WireUnit::Hop::Kind::Bus:
        eq.schedule(hopBus(hop.sw, wire),
                    [this, unit = std::move(unit)]() mutable {
                        advance(std::move(unit));
                    },
                    EventCat::Cxl);
        break;
      case WireUnit::Hop::Kind::Delay:
        eq.scheduleIn(hop.delay,
                      [this, unit = std::move(unit)]() mutable {
                          advance(std::move(unit));
                      },
                      EventCat::Cxl);
        break;
    }
}

} // namespace beacon
