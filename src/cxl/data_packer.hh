/**
 * @file
 * Data Packer model (Section IV-B of the paper).
 *
 * Genome-analysis kernels issue fine-grained accesses (32 B seeding
 * fetches, single-counter Bloom updates) while CXL moves data in 64 B
 * flits. The Data Packer batches fine-grained payloads heading to the
 * same destination into shared flits: wire traffic shrinks from one
 * flit per payload to ceil(sum(payload + header) / flit).
 *
 * The packer flushes when a flit fills or when a timeout expires
 * after the first pending payload, so packing trades a bounded
 * staging delay for bandwidth. Every staged payload keeps the job id
 * it was submitted with, so request tracing can attribute a packed
 * flit to each job riding in it.
 */

#ifndef BEACON_CXL_DATA_PACKER_HH
#define BEACON_CXL_DATA_PACKER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/units.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace beacon
{

/** Data Packer tunables. */
struct PackerParams
{
    unsigned flit_bytes = 64;
    unsigned header_bytes = 4;   //!< routing tag per packed payload
    Tick flush_timeout = 15000;  //!< 15 ns staging bound
    bool enabled = true;
};

/**
 * Batches fine-grained payloads into flits.
 *
 * The packer is transport-agnostic: when a batch is ready it hands
 * (wire_bytes, staged payloads) to the flush function supplied by
 * its owner, which routes the packed unit and fires every payload's
 * delivery when it arrives. Each staged payload carries the job id
 * it was submitted with, so a batch says which jobs ride in it.
 */
class DataPacker
{
  public:
    /** One submitted payload: its delivery and its request job. */
    struct Payload
    {
        Completion deliver;
        std::uint64_t job = 0; //!< obs::RequestContext job, 0 = none
    };

    using Batch = std::vector<Payload>;
    using FlushFn = InlineCallback<void(Bytes wire_bytes, Batch batch)>;

    DataPacker(EventQueue &eq, const PackerParams &params,
               FlushFn flush_fn)
        : eq(eq), p(params), flush(std::move(flush_fn))
    {}

    /**
     * Submit one payload of @p useful_bytes for @p job. Non-fine-
     * grained payloads, or any payload when packing is disabled, are
     * flushed immediately at full-flit granularity.
     */
    void
    submit(Bytes useful_bytes, bool fine_grained, std::uint64_t job,
           Completion deliver)
    {
        const Bytes framed = useful_bytes + Bytes{p.header_bytes};
        if (!p.enabled || !fine_grained) {
            Batch batch;
            batch.push_back({std::move(deliver), job});
            flush(Bytes{roundUp<std::uint64_t>(framed.value(),
                                               p.flit_bytes)},
                  std::move(batch));
            ++unpacked_messages;
            return;
        }
        pending.push_back({std::move(deliver), job});
        pending_bytes += framed;
        ++packed_messages;
        if (pending_bytes >= Bytes{p.flit_bytes}) {
            flushNow();
        } else if (!timeout_armed) {
            timeout_armed = true;
            timeout_ev = eq.scheduleIn(
                p.flush_timeout,
                [this] {
                    timeout_armed = false;
                    if (!pending.empty())
                        flushNow();
                },
                EventCat::Cxl);
        }
    }

    /** Payloads currently staged. */
    std::size_t pendingCount() const { return pending.size(); }

    std::uint64_t packedMessages() const { return packed_messages; }
    std::uint64_t unpackedMessages() const { return unpacked_messages; }
    std::uint64_t flitsFlushed() const { return flits_flushed; }

  private:
    void
    flushNow()
    {
        if (timeout_armed) {
            eq.cancel(timeout_ev);
            timeout_armed = false;
        }
        const Bytes wire = Bytes{
            roundUp<std::uint64_t>(pending_bytes.value(), p.flit_bytes)};
        flits_flushed += wire.value() / p.flit_bytes;
        flush(wire, std::move(pending));
        pending.clear();
        pending_bytes = Bytes{};
    }

    EventQueue &eq;
    PackerParams p;
    FlushFn flush;

    Batch pending;
    Bytes pending_bytes;
    bool timeout_armed = false;
    EventId timeout_ev = 0;

    std::uint64_t packed_messages = 0;
    std::uint64_t unpacked_messages = 0;
    std::uint64_t flits_flushed = 0;
};

} // namespace beacon

#endif // BEACON_CXL_DATA_PACKER_HH
