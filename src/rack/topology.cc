#include "topology.hh"

#include <string>

#include "common/logging.hh"

namespace beacon::rack
{

RackTree::RackTree(EventQueue &eq, StatRegistry &stats,
                   const RackTreeParams &params)
    : eq(eq), p(params)
{
    BEACON_ASSERT(p.hosts >= 1, "rack tree needs at least one host");
    level_links.resize(p.levels);
    for (unsigned l = 0; l < p.levels; ++l) {
        const unsigned n = (p.hosts + (1u << l) - 1) >> l;
        for (unsigned i = 0; i < n; ++i) {
            level_links[l].push_back(std::make_unique<CxlLink>(
                "rack.l" + std::to_string(l) + ".link" +
                    std::to_string(i),
                eq, stats, p.link));
        }
    }
}

void
RackTree::traverse(unsigned host, Bytes bytes, Completion done)
{
    BEACON_ASSERT(host < p.hosts, "bad rack host ", host);
    hop(host, 0, bytes, std::move(done));
}

void
RackTree::hop(unsigned host, unsigned level, Bytes bytes,
              Completion done)
{
    if (level >= p.levels) {
        done(eq.now());
        return;
    }
    CxlLink &link = *level_links[level][host >> level];
    link.send(LinkDir::Downstream, bytes,
              [this, host, level, bytes,
               done = std::move(done)](Tick) mutable {
                  hop(host, level + 1, bytes, std::move(done));
              });
}

Bytes
RackTree::totalBytes() const
{
    Bytes total;
    for (const auto &level : level_links) {
        for (const auto &link : level)
            total += link->totalBytes();
    }
    return total;
}

} // namespace beacon::rack
