/**
 * @file
 * Rack-level CXL switch hierarchy between the hosts and the pool.
 *
 * Models the multi-level switch tree of a rack-scale pool: every host
 * reaches the pool root through `levels` cascaded rack switches, and
 * adjacent hosts share aggregation links higher up the tree (host h
 * uses link h >> l at level l, so 2^l hosts contend for each level-l
 * link). This is where cross-host interference on the shared pool
 * becomes visible: one host's ingress burst occupies aggregation
 * links other hosts need.
 *
 * The tree carries host-side traffic only (job ingress streaming);
 * pool-internal routing stays in PoolFabric.
 */

#ifndef BEACON_RACK_TOPOLOGY_HH
#define BEACON_RACK_TOPOLOGY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hh"
#include "cxl/link.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace beacon::rack
{

/** Shape of the rack switch tree. */
struct RackTreeParams
{
    unsigned hosts = 2;
    /** Cascaded switch levels between a host and the pool root;
     *  0 attaches every host directly to the root (no tree links). */
    unsigned levels = 1;
    /** Every tree link (all levels) uses this configuration. */
    LinkParams link{64.0, 30000, false};
};

/** The rack switch tree: owns the per-level aggregation links. */
class RackTree
{
  public:
    RackTree(EventQueue &eq, StatRegistry &stats,
             const RackTreeParams &params);

    const RackTreeParams &params() const { return p; }
    unsigned hosts() const { return p.hosts; }
    unsigned levels() const { return p.levels; }

    /** Aggregation links at @p level (ceil(hosts / 2^level)). */
    unsigned linksAt(unsigned level) const
    {
        return unsigned(level_links.at(level).size());
    }

    /** Link @p index at @p level (inspection in tests). */
    const CxlLink &link(unsigned level, unsigned index) const
    {
        return *level_links.at(level).at(index);
    }

    /**
     * Move @p bytes from host @p host down the tree to the pool
     * root: one sequential downstream hop per level over the host's
     * link at that level. @p done fires when the last
     * byte reaches the root; with zero levels it fires immediately,
     * still from the calling event context.
     */
    void traverse(unsigned host, Bytes bytes,
                  std::function<void(Tick)> done);

    /** Bytes moved over every tree link, both directions. */
    Bytes totalBytes() const;

  private:
    void hop(unsigned host, unsigned level, Bytes bytes,
             std::function<void(Tick)> done);

    EventQueue &eq;
    RackTreeParams p;
    /** level -> shared links (index = host >> level). */
    std::vector<std::vector<std::unique_ptr<CxlLink>>> level_links;
};

} // namespace beacon::rack

#endif // BEACON_RACK_TOPOLOGY_HH
