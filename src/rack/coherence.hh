/**
 * @file
 * Shared-segment coherence state (CXL 3.x back-invalidate style).
 *
 * A shared segment is a read-mostly block of pool memory (e.g. a
 * reference genome) mapped by every rack host at once, with a single
 * physical copy on one owning expander. The owning expander keeps a
 * per-block directory (MESI-lite: Invalid / Shared / Modified plus a
 * sharer bitmask); hosts keep a block-granular cache of what they
 * have mapped. A write — or a read of a block another host modified —
 * makes the directory emit back-invalidate (BI) snoops to the stale
 * hosts over the ordinary pool fabric, exactly the BISnp flow CXL 3.x
 * added for device-to-host invalidation.
 *
 * This class is pure state, split into two halves: the host-side
 * cache maps and the owning expander's directory, busy set, and
 * transaction queues. RackSystem's message protocol moves a
 * transaction between the two halves over the pool fabric.
 */

#ifndef BEACON_RACK_COHERENCE_HH
#define BEACON_RACK_COHERENCE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/units.hh"

namespace beacon::rack
{

/** Configuration of one shared segment. */
struct SegmentParams
{
    std::string name;
    Bytes bytes{1u << 20};
    /** Owning expander: global pool DIMM index (must be an online
     *  expansion DIMM; hot-remove re-homes it). */
    unsigned owner_dimm = 0;
    /** Coherence block size in bytes. */
    std::uint32_t block_bytes = 64;
};

/**
 * Directory + host-cache state of one shared segment. Pure state —
 * all messaging lives in RackSystem.
 */
class SegmentCoherence
{
  public:
    enum class BlockState : std::uint8_t
    {
        Invalid,
        Shared,
        Modified,
    };

    /** Directory decision for a read miss. */
    struct ReadActions
    {
        /** The block is Modified elsewhere: invalidate + write back
         *  from @p writeback_host before serving the read. */
        bool writeback = false;
        unsigned writeback_host = 0;
    };

    /** Directory decision for a write miss / upgrade. */
    struct WriteActions
    {
        /** Hosts holding stale copies, to BI-invalidate. */
        std::vector<unsigned> invalidate;
        /** One of them held the block Modified (dirty data). */
        bool writeback = false;
        unsigned writeback_host = 0;
    };

    SegmentCoherence(SegmentParams params, unsigned num_hosts);

    const SegmentParams &params() const { return p; }
    unsigned owner() const { return owner_; }
    /** Re-home the directory (hot-remove migration, while the rack is
     *  quiescent). */
    void setOwner(unsigned dimm) { owner_ = dimm; }
    std::uint64_t numBlocks() const { return num_blocks; }

    // ------------------------------------------------------------
    // Host-side cache state.
    // ------------------------------------------------------------

    /** Host @p host has a (Shared or Modified) copy of @p block. */
    bool cachedOn(unsigned host, std::uint64_t block) const;

    /** Host @p host holds @p block Modified. */
    bool modifiedOn(unsigned host, std::uint64_t block) const;

    void cacheShared(unsigned host, std::uint64_t block);
    void cacheModified(unsigned host, std::uint64_t block);

    /** BI snoop landed: drop the host's copy (no-op when absent). */
    void uncache(unsigned host, std::uint64_t block);

    /**
     * Drop every host's every copy (conservative BI-on-migrate when
     * the segment re-homes). Returns the number of entries dropped.
     */
    std::uint64_t uncacheAll();

    // ------------------------------------------------------------
    // Directory state at the owning expander.
    // ------------------------------------------------------------

    /**
     * Record a read by @p host: the block becomes Shared with @p host
     * a sharer. Returns the writeback the caller must simulate first
     * when the block was Modified by another host (which is dropped
     * from the sharer set — conservative full invalidation).
     */
    ReadActions directoryRead(unsigned host, std::uint64_t block);

    /**
     * Record a write by @p host: the block becomes Modified by
     * @p host. Returns every stale copy the caller must BI-snoop.
     */
    WriteActions directoryWrite(unsigned host, std::uint64_t block);

    /** Drop all directory state (migration re-home). */
    void directoryClear();

    /** @name Per-block transaction serialisation
     * One coherence transaction per block at a time; later requests
     * queue at the owner and start when the current one's
     * install-ack returns. @{ */
    bool busy(std::uint64_t block) const
    {
        return busy_.count(block) != 0;
    }
    void setBusy(std::uint64_t block);
    void clearBusy(std::uint64_t block);
    void queueTxn(std::uint64_t block, std::function<void()> start);
    /** Next queued transaction for @p block, or null. */
    std::function<void()> popTxn(std::uint64_t block);
    /** @} */

  private:
    struct Block
    {
        BlockState state = BlockState::Invalid;
        std::uint64_t sharers = 0; //!< bit h = host h holds a copy
        unsigned modifier = 0;
    };

    SegmentParams p;
    unsigned owner_;
    std::uint64_t num_blocks;
    /** Per host: block -> cached state. */
    std::vector<std::map<std::uint64_t, BlockState>> host_blocks;
    /** Directory: absent block = Invalid. */
    std::unordered_map<std::uint64_t, Block> dir;
    std::unordered_set<std::uint64_t> busy_;
    std::unordered_map<std::uint64_t,
                       std::deque<std::function<void()>>>
        queues;
};

} // namespace beacon::rack

#endif // BEACON_RACK_COHERENCE_HH
