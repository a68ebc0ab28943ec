/**
 * @file
 * Abstract communication fabric interface.
 *
 * Both the CXL pool fabric (PoolFabric) and the DDR-channel fabric
 * used by the MEDAL/NEST baselines (DdrFabric) implement this
 * interface, so the accelerator systems are fabric-agnostic. There
 * is one entry point, send(), which carries the tenant and the job
 * with every message; its delivery is a move-only Completion
 * (sim/callback.hh), so a caller may hand the fabric state it owns.
 */

#ifndef BEACON_CXL_FABRIC_HH
#define BEACON_CXL_FABRIC_HH

#include <cstdint>

#include "common/units.hh"
#include "cxl/node.hh"
#include "sim/callback.hh"

namespace beacon
{

/** Message-passing interface of a fabric. */
class Fabric
{
  public:
    virtual ~Fabric() = default;

    /**
     * Move @p useful_bytes from @p src to @p dst; @p deliver fires at
     * full arrival. @p fine_grained marks payloads eligible for data
     * packing (where the fabric supports it). The fabric accounts
     * @p useful_bytes to @p tenant at the injection point (tenant 0
     * is untenanted), so multi-tenant runs can split link occupancy
     * and communication energy by tenant. @p job is the orchestrator
     * job the transfer serves (obs::RequestContext; 0 = none): a
     * fabric that supports request tracing records per-hop
     * Link/Switch component spans for it. Neither the tenant nor the
     * job changes timing.
     */
    virtual void send(NodeId src, NodeId dst, Bytes useful_bytes,
                      bool fine_grained, TenantId tenant,
                      std::uint64_t job, Completion deliver) = 0;

    /** Total wire bytes moved (for communication energy). */
    virtual Bytes totalWireBytes() const = 0;
};

} // namespace beacon

#endif // BEACON_CXL_FABRIC_HH
