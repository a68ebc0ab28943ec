/**
 * @file
 * DDR4 timing and geometry parameters.
 *
 * All timing values are in bus-clock cycles (nCK). The evaluation
 * configuration follows Table I of the BEACON paper: DDR4-1600 with
 * 22-22-22 primary timings, 8 Gb x4 devices, 16 chips per rank,
 * 4 ranks per DIMM, 4 bank groups x 4 banks (64 GB per DIMM).
 */

#ifndef BEACON_DRAM_TIMING_HH
#define BEACON_DRAM_TIMING_HH

#include <cstdint>

#include "common/units.hh"

namespace beacon
{

/** JEDEC-style DDR4 timing constraints, in bus-clock cycles. */
struct DramTimingParams
{
    Tick t_ck_ps;       //!< bus clock period in picoseconds
    unsigned t_cl;      //!< CAS latency (RD command to first data)
    unsigned t_rcd;     //!< ACT to internal RD/WR
    unsigned t_rp;      //!< PRE to ACT
    unsigned t_ras;     //!< ACT to PRE (same bank)
    unsigned t_rc;      //!< ACT to ACT (same bank)
    unsigned t_rrd_s;   //!< ACT to ACT, different bank group
    unsigned t_rrd_l;   //!< ACT to ACT, same bank group
    unsigned t_ccd_s;   //!< RD/WR to RD/WR, different bank group
    unsigned t_ccd_l;   //!< RD/WR to RD/WR, same bank group
    unsigned t_faw;     //!< four-activate window (per rank)
    unsigned t_wr;      //!< write recovery (end of write data to PRE)
    unsigned t_wtr;     //!< write-to-read turnaround (same rank)
    unsigned t_rtp;     //!< read to PRE
    unsigned t_cwl;     //!< CAS write latency
    unsigned t_bl;      //!< burst duration on the data bus (BL8 -> 4)
    unsigned t_refi;    //!< average refresh interval
    unsigned t_rfc;     //!< refresh cycle time

    /** DDR4-1600, 22-22-22 (Table I of the paper). */
    static DramTimingParams ddr4_1600_22();

    /** DDR4-3200, 22-22-22 (a faster grade for scaling studies). */
    static DramTimingParams ddr4_3200_22();
};

/** Physical organisation of one DIMM. */
struct DimmGeometry
{
    unsigned ranks = 4;             //!< ranks per DIMM
    unsigned chips_per_rank = 16;   //!< x4 devices per rank
    unsigned bank_groups = 4;
    unsigned banks_per_group = 4;
    unsigned rows = 1u << 17;       //!< rows per bank (8 Gb x4)
    unsigned columns = 1u << 10;    //!< columns per row
    unsigned device_width_bits = 4; //!< DQ width per chip
    /**
     * Customised NDP DIMMs (MEDAL DIMMs, BEACON CXLG-DIMMs) wire each
     * rank's DQ lanes to the on-DIMM logic separately, so ranks do
     * not contend for data lanes; an unmodified DIMM shares one set
     * of lanes across all ranks.
     */
    bool per_rank_lanes = false;
    /**
     * Customised DIMMs likewise drive each rank's C/A bus from the
     * on-DIMM logic independently; a stock DIMM serialises all
     * commands on one C/A bus.
     */
    bool per_rank_cmd_bus = false;

    unsigned banksPerRank() const { return bank_groups * banks_per_group; }
    unsigned totalBanks() const { return ranks * banksPerRank(); }

    /** Bytes delivered by one BL8 burst from a single chip. */
    std::uint64_t
    bytesPerChipBurst() const
    {
        return std::uint64_t{device_width_bits} * 8 / 8;
    }

    /** Bytes per row in one chip (row-buffer size per chip). */
    std::uint64_t
    rowBytesPerChip() const
    {
        return std::uint64_t{columns} * device_width_bits / 8;
    }

    /** Total DIMM capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return std::uint64_t{ranks} * chips_per_rank * banksPerRank() *
               rows * rowBytesPerChip();
    }
};

} // namespace beacon

#endif // BEACON_DRAM_TIMING_HH
