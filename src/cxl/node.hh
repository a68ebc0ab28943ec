/**
 * @file
 * Node addressing within the CXL memory pool.
 */

#ifndef BEACON_CXL_NODE_HH
#define BEACON_CXL_NODE_HH

#include <cstdint>
#include <functional>
#include <string>

namespace beacon
{

/**
 * Identifies an endpoint in the pool: a host, one CXL-Switch, or
 * one DIMM (addressed as switch-local index).
 *
 * Rack-scale machines (src/rack) attach several hosts to one pool;
 * host h reuses the `sw` field as its host index. Every host enters
 * the pool fabric at the same root port, so the fabric routes all
 * Host-kind nodes identically — the index only distinguishes their
 * packers and statistics.
 */
struct NodeId
{
    enum class Kind : std::uint8_t { Host, Switch, Dimm };

    Kind kind = Kind::Host;
    std::uint16_t sw = 0;    //!< switch index (Switch and Dimm kinds)
    std::uint16_t dimm = 0;  //!< DIMM index within the switch

    static NodeId host() { return NodeId{Kind::Host, 0, 0}; }

    /** Host @p h of a multi-host rack (host 0 == host()). */
    static NodeId
    hostNode(unsigned h)
    {
        return NodeId{Kind::Host, std::uint16_t(h), 0};
    }

    static NodeId
    switchNode(unsigned s)
    {
        return NodeId{Kind::Switch, std::uint16_t(s), 0};
    }

    static NodeId
    dimmNode(unsigned s, unsigned d)
    {
        return NodeId{Kind::Dimm, std::uint16_t(s), std::uint16_t(d)};
    }

    bool
    operator==(const NodeId &o) const
    {
        return kind == o.kind && sw == o.sw && dimm == o.dimm;
    }

    bool isHost() const { return kind == Kind::Host; }
    bool isSwitch() const { return kind == Kind::Switch; }
    bool isDimm() const { return kind == Kind::Dimm; }

    /** Compact key usable in hash maps. */
    std::uint32_t
    key() const
    {
        return (std::uint32_t(kind) << 24) | (std::uint32_t(sw) << 12) |
               dimm;
    }

    std::string
    str() const
    {
        switch (kind) {
          case Kind::Host:
            // Host 0 keeps the historical bare name so single-host
            // stat keys and goldens are unchanged.
            return sw == 0 ? "host" : "host" + std::to_string(sw);
          case Kind::Switch:
            return "switch" + std::to_string(sw);
          case Kind::Dimm:
            return "dimm" + std::to_string(sw) + "." +
                   std::to_string(dimm);
        }
        return "?";
    }
};

} // namespace beacon

#endif // BEACON_CXL_NODE_HH
