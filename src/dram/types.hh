/**
 * @file
 * Core DRAM request/coordinate types.
 */

#ifndef BEACON_DRAM_TYPES_HH
#define BEACON_DRAM_TYPES_HH

#include <cstdint>

#include "common/units.hh"
#include "sim/callback.hh"

namespace beacon
{

/**
 * Physical coordinates of an access within one DIMM.
 *
 * The chip group [chip_first, chip_first + chip_count) selects which
 * devices in the rank participate. A conventional access uses the
 * whole rank (chip_count == chips_per_rank); MEDAL-style fine-grained
 * access uses chip_count == 1; BEACON's multi-chip coalescing uses an
 * intermediate group size.
 */
struct DramCoord
{
    unsigned rank = 0;
    unsigned bank_group = 0;
    unsigned bank = 0;          //!< bank within the group
    RowId row;
    unsigned column = 0;        //!< starting column of the access
    unsigned chip_first = 0;
    unsigned chip_count = 1;

    /** Flat bank index within the DIMM geometry. */
    unsigned
    flatBank(unsigned banks_per_group) const
    {
        return bank_group * banks_per_group + bank;
    }

    bool
    sameRow(const DramCoord &o) const
    {
        return rank == o.rank && bank_group == o.bank_group &&
               bank == o.bank && row == o.row &&
               chip_first == o.chip_first && chip_count == o.chip_count;
    }
};

/** DRAM command kinds observable on the C/A bus. */
enum class DramCommandKind : std::uint8_t
{
    Act,
    Pre,
    Read,
    ReadAp,  //!< read with auto-precharge
    Write,
    WriteAp, //!< write with auto-precharge
    Refresh,
};

/** Printable mnemonic for a command kind. */
constexpr const char *
dramCommandName(DramCommandKind kind)
{
    switch (kind) {
      case DramCommandKind::Act:
        return "ACT";
      case DramCommandKind::Pre:
        return "PRE";
      case DramCommandKind::Read:
        return "RD";
      case DramCommandKind::ReadAp:
        return "RDA";
      case DramCommandKind::Write:
        return "WR";
      case DramCommandKind::WriteAp:
        return "WRA";
      case DramCommandKind::Refresh:
        return "REF";
    }
    return "?";
}

/**
 * One command as issued on the command bus, reported to observers
 * tapped onto the DimmTimingModel command path. For Refresh only
 * @c tick and @c coord.rank are meaningful.
 */
struct DramCommand
{
    DramCommandKind kind = DramCommandKind::Act;
    DramCoord coord;
    Tick tick = 0;
};

/** A read or write handed to a DRAM controller. */
struct MemRequest
{
    DramCoord coord;
    bool is_write = false;
    /** Useful payload bytes (for bandwidth-utilisation stats). */
    Bytes bytes;
    /** Number of BL8 column commands needed to move the payload. */
    unsigned bursts = 1;
    /** Invoked at data-completion time. */
    Completion on_complete;
    /** Arrival time, filled in by the controller. */
    Tick enqueue_tick = 0;
    /**
     * Request-scoped attribution (obs::RequestContext): the
     * orchestrator job this access serves, or 0 for direct/driver
     * traffic. The controller records a DRAM component span for the
     * job when a RequestTrace is attached to its queue.
     */
    std::uint64_t job = 0;
};

} // namespace beacon

#endif // BEACON_DRAM_TYPES_HH
