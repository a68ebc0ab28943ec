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
    if (p.checkers.cxl_link) {
        link_checker =
            std::make_unique<CxlLinkChecker>(name, p.checkers);
    }
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
            [this, src, dst](Bytes wire,
                             std::vector<Deliver> batch) {
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
PoolFabric::sendTagged(NodeId src, NodeId dst,
                       Bytes useful_bytes, bool fine_grained,
                       TenantId tenant, Deliver deliver)
{
    sendCtx(src, dst, useful_bytes, fine_grained, tenant, 0,
            std::move(deliver));
}

void
PoolFabric::sendCtx(NodeId src, NodeId dst, Bytes useful_bytes,
                    bool fine_grained, TenantId tenant,
                    std::uint64_t job, Deliver deliver)
{
    ++stat_messages;
    stat_useful_bytes += double(useful_bytes.value());
    tenantBytesStat(tenant) += double(useful_bytes.value());
    if (link_checker) {
        link_checker->onSubmit(curTick());
        // Wrap the delivery so the checker sees the matching exit.
        deliver = [this, inner = std::move(deliver)](Tick t) {
            link_checker->onDeliver(t);
            inner(t);
        };
    }
    if (BEACON_REQUEST_TRACE(eq) != nullptr) {
        // One FIFO entry per staged payload, popped by routeWire()
        // per flushed Deliver — alignment holds because EVERY submit
        // funnels through here while the trace is attached.
        const std::uint64_t key =
            (std::uint64_t(src.key()) << 32) | dst.key();
        pending_jobs[key].push_back(job);
    }
    packerFor(src, dst).submit(useful_bytes, fine_grained,
                               std::move(deliver));
}

void
PoolFabric::hopBus(unsigned sw, Bytes bytes,
                   std::function<void()> next)
{
    const Tick depart = curTick();
    const Tick done = switches[sw].bus->accept(depart, bytes);
    if (link_checker) {
        link_checker->onTransfer(bus_channels[sw], depart, done,
                                 done + p.switch_latency, bytes,
                                 switches[sw].bus->rateGBps(),
                                 switches[sw].bus->ideal());
    }
    eq.schedule(done + p.switch_latency,
                [fn = std::move(next)] { fn(); }, EventCat::Cxl);
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
PoolFabric::hopLink(CxlLink &link, LinkDir dir, Bytes bytes,
                    std::function<void()> next)
{
    link.send(dir, bytes, [fn = std::move(next)](Tick) { fn(); });
}

void
PoolFabric::routeWire(NodeId src, NodeId dst, Bytes wire,
                      std::vector<Deliver> batch)
{
    // Claim this wire unit's request contexts: one FIFO entry per
    // batched payload (see pending_jobs). Unique nonzero ids get a
    // component span per hop below; popping happens even on the
    // loopback path so the FIFO stays aligned.
    std::vector<std::uint64_t> jobs;
    if (BEACON_REQUEST_TRACE(eq) != nullptr) {
        const std::uint64_t key =
            (std::uint64_t(src.key()) << 32) | dst.key();
        auto &fifo = pending_jobs[key];
        for (std::size_t i = 0; i < batch.size() && !fifo.empty();
             ++i) {
            const std::uint64_t job = fifo.front();
            fifo.pop_front();
            if (job != 0 &&
                std::find(jobs.begin(), jobs.end(), job) ==
                    jobs.end()) {
                jobs.push_back(job);
            }
        }
    }

    auto deliver_all = [this, batch = std::move(batch)]() {
        const Tick t = curTick();
        for (const Deliver &d : batch)
            d(t);
    };

    if (src == dst) {
        eq.scheduleIn(0, deliver_all, EventCat::Cxl);
        return;
    }

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

    // Build the ordered hop plan. Each entry reserves one resource.
    struct Hop
    {
        enum class Kind { Link, Bus, Delay } kind;
        CxlLink *link = nullptr;
        LinkDir dir = LinkDir::Downstream;
        unsigned sw = 0;
        Tick delay = 0;
    };
    std::vector<Hop> plan;

    if (src.isDimm()) {
        plan.push_back({Hop::Kind::Link,
                        switches[ssw].dimm_links[src.dimm].get(),
                        LinkDir::Upstream, 0, 0});
    }
    if (!src_is_host)
        plan.push_back({Hop::Kind::Bus, nullptr, LinkDir::Upstream,
                        ssw, 0});
    if (cross_fabric || needs_host_hop) {
        if (!src_is_host) {
            plan.push_back({Hop::Kind::Link,
                            switches[ssw].host_link.get(),
                            LinkDir::Upstream, 0, 0});
        }
        // Host processing: full coherence resolution latency when the
        // host owns the access, pure forwarding latency otherwise.
        plan.push_back({Hop::Kind::Delay, nullptr, LinkDir::Upstream,
                        0,
                        full_coherence ? p.host_latency
                                       : p.host_latency / 4});
        if (full_coherence) {
            ++host_round_trips;
            ++stat_host_round_trips;
        }
        if (!dst_is_host) {
            plan.push_back({Hop::Kind::Link,
                            switches[dsw].host_link.get(),
                            LinkDir::Downstream, 0, 0});
            plan.push_back({Hop::Kind::Bus, nullptr,
                            LinkDir::Downstream, dsw, 0});
        }
    }
    if (dst.isDimm()) {
        plan.push_back({Hop::Kind::Link,
                        switches[dsw].dimm_links[dst.dimm].get(),
                        LinkDir::Downstream, 0, 0});
    }

    // Execute the plan hop by hop. The stored function must not hold
    // a strong reference to itself (that cycle would leak the whole
    // state machine); instead each pending continuation owns the
    // strong reference, so the machine lives exactly as long as a
    // hop is in flight.
    auto plan_ptr = std::make_shared<std::vector<Hop>>(std::move(plan));
    auto step = std::make_shared<std::function<void(std::size_t)>>();
    std::weak_ptr<std::function<void(std::size_t)>> weak_step = step;
    *step = [this, plan_ptr, wire, weak_step, jobs,
             done = std::move(deliver_all)](std::size_t i) {
        if (i >= plan_ptr->size()) {
            done();
            return;
        }
        const Hop &hop = (*plan_ptr)[i];
        std::function<void()> next = [self = weak_step.lock(), i]() {
            (*self)(i + 1);
        };
        if (!jobs.empty()) {
            // Request-scoped attribution: the hop's full residency
            // (queueing + serialisation + propagation) becomes a
            // Link or Switch component span for every riding job.
            const Tick hop_start = curTick();
            const obs::SpanKind kind = hop.kind == Hop::Kind::Link
                                           ? obs::SpanKind::Link
                                           : obs::SpanKind::Switch;
            next = [this, jobs, hop_start, kind,
                    self = weak_step.lock(), i]() {
                if (obs::RequestTrace *rt = BEACON_REQUEST_TRACE(eq)) {
                    for (const std::uint64_t job : jobs) {
                        rt->recordSpan(job, kind, hop_start,
                                       curTick());
                    }
                }
                (*self)(i + 1);
            };
        }
        switch (hop.kind) {
          case Hop::Kind::Link:
            hopLink(*hop.link, hop.dir, wire, std::move(next));
            break;
          case Hop::Kind::Bus:
            hopBus(hop.sw, wire, std::move(next));
            break;
          case Hop::Kind::Delay:
            eq.scheduleIn(hop.delay, std::move(next), EventCat::Cxl);
            break;
        }
    };
    (*step)(0);
}

} // namespace beacon
