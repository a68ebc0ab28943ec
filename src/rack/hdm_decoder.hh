/**
 * @file
 * CXL HDM (Host-managed Device Memory) address decoder.
 *
 * Each rack host owns one decoder mapping its host physical address
 * (HPA) ranges onto pool expanders. A range interleaves consecutive
 * granules round-robin across `ways` targets, exactly like the HDM
 * decoder capability of a CXL 3.x host bridge: granule g of the range
 * lands on target g % ways at device physical address (DPA)
 *
 *     dpa_base + (g / ways) * granularity + offset-in-granule.
 *
 * The math round-trips: encode(decode(hpa)) == hpa for every address
 * of every range (property-tested in tests/test_rack.cc), which is
 * what lets hot-plug rebuild decoders without losing track of data.
 */

#ifndef BEACON_RACK_HDM_DECODER_HH
#define BEACON_RACK_HDM_DECODER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hh"

namespace beacon::rack
{

/** One programmed HPA range of a host's HDM decoder. */
struct HdmRange
{
    std::uint64_t base = 0;  //!< first HPA covered
    Bytes size;              //!< multiple of ways * granularity
    std::uint64_t dpa_base = 0;
    unsigned ways = 1;           //!< interleave ways (>= 1)
    Bytes granularity{256};      //!< power-of-two interleave granule
    /** Target expander (global DIMM index) per way. */
    std::vector<unsigned> targets;
};

/** Result of decoding one HPA. */
struct HdmDecoded
{
    unsigned target = 0;     //!< global DIMM index
    unsigned way = 0;        //!< interleave way the HPA hit
    std::uint64_t dpa = 0;   //!< device physical address
    std::size_t range = 0;   //!< index of the matched range
};

/**
 * A host's HDM decoder: an ordered list of non-overlapping HPA
 * ranges. Plain state, no event-queue interaction; rack machines
 * mutate it only from control events.
 */
class HdmDecoder
{
  public:
    /**
     * Program a range. Hard-fails (BEACON_CHECK) on a non-power-of-2
     * or zero granularity, a target list whose size differs from
     * `ways`, a size that does not tile ways * granularity, or an HPA
     * overlap with an already-programmed range.
     */
    void addRange(const HdmRange &range);

    /** Drop every range (hot-plug reprogramming). */
    void clear() { ranges.clear(); }

    std::size_t numRanges() const { return ranges.size(); }
    const HdmRange &range(std::size_t i) const { return ranges.at(i); }

    /** True when some range covers @p hpa. */
    bool contains(std::uint64_t hpa) const;

    /** Decode @p hpa; hard-fails when no range covers it. */
    HdmDecoded decode(std::uint64_t hpa) const;

    /**
     * Inverse of decode(): reconstruct the HPA of @p dpa on way
     * @p way of range @p range_idx.
     */
    std::uint64_t encode(std::size_t range_idx, unsigned way,
                         std::uint64_t dpa) const;

    /**
     * Split the span [hpa, hpa + bytes) at granule boundaries and
     * invoke @p fn once per piece in address order.
     */
    void forEachGranule(
        std::uint64_t hpa, Bytes bytes,
        const std::function<void(const HdmDecoded &, Bytes)> &fn) const;

  private:
    std::vector<HdmRange> ranges;
};

} // namespace beacon::rack

#endif // BEACON_RACK_HDM_DECODER_HH
