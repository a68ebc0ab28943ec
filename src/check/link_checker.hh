/**
 * @file
 * Runtime checker for the CXL communication substrate.
 *
 * A CxlLinkChecker shadows every serial channel it is attached to (a
 * link direction or a switch bus) and re-derives, from the observed
 * (depart, bytes) stream alone, when each transfer must finish
 * serialising. It validates:
 *
 *   - FIFO ordering per channel: a transfer never overtakes an
 *     earlier one (serialisation completes in submit order, arrival
 *     ticks are monotonically non-decreasing);
 *   - bandwidth conservation: the channel's reported finish time and
 *     cumulative busy time exactly match the shadow reservation at
 *     the channel's fixed byte rate;
 *   - request/response balance at the fabric level: every message
 *     submitted to the fabric is eventually delivered, and a
 *     delivery never precedes its submission.
 */

#ifndef BEACON_CHECK_LINK_CHECKER_HH
#define BEACON_CHECK_LINK_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace beacon
{

/** Shadow model of the pool's serial channels + message balance. */
class CxlLinkChecker
{
  public:
    explicit CxlLinkChecker(std::string name);

    /** Register one serial channel; @return its channel id. */
    unsigned registerChannel(const std::string &label);

    /**
     * Observe one transfer on @p channel: submitted at @p depart,
     * channel reports serialisation done at @p serialized and
     * delivery at @p arrive (>= serialized). Panics when the
     * reported times disagree with the shadow reservation.
     */
    void onTransfer(unsigned channel, Tick depart, Tick serialized,
                    Tick arrive, Bytes bytes, double rate_gbps,
                    bool ideal);

    /**
     * Compare a channel's cumulative busy time against the shadow
     * expectation (bandwidth conservation over the whole run).
     */
    void checkBusyTicks(unsigned channel, Tick actual_busy_ticks) const;

    /** A message entered the fabric. */
    void onSubmit(Tick now);

    /** A message left the fabric (reached its destination). */
    void onDeliver(Tick now);

    /** End-of-run: every submitted message must have been delivered. */
    void finalize() const;

    std::uint64_t submitted() const { return n_submitted; }
    std::uint64_t delivered() const { return n_delivered; }

  private:
    struct Channel
    {
        std::string label;
        Tick busy_until = 0;         //!< shadow reservation horizon
        Tick expected_busy_ticks = 0;
        Tick last_arrival = 0;
        bool has_arrival = false;
    };

    std::string name;
    std::vector<Channel> channels;
    std::uint64_t n_submitted = 0;
    std::uint64_t n_delivered = 0;
};

} // namespace beacon

#endif // BEACON_CHECK_LINK_CHECKER_HH
