#include "link_checker.hh"

#include <algorithm>

#include "common/logging.hh"

namespace beacon
{

CxlLinkChecker::CxlLinkChecker(std::string name_)
    : name(std::move(name_))
{
}

unsigned
CxlLinkChecker::registerChannel(const std::string &label)
{
    channels.emplace_back(label);
    return unsigned(channels.size() - 1);
}

void
CxlLinkChecker::onTransfer(unsigned channel, Tick depart,
                           Tick serialized, Tick arrive,
                           Bytes bytes, double rate_gbps,
                           bool ideal)
{
    BEACON_CHECK(channel < channels.size(), name,
                 ": transfer on unregistered channel ", channel);
    Channel &ch = channels[channel];

    BEACON_CHECK(serialized >= depart, name, " channel ", ch.label,
                 ": serialisation finished at t=", serialized,
                 " before the transfer departed at t=", depart);
    BEACON_CHECK(arrive >= serialized, name, " channel ", ch.label,
                 ": arrival t=", arrive,
                 " precedes serialisation end t=", serialized);

    if (ideal) {
        BEACON_CHECK(serialized == depart, name, " channel ",
                     ch.label,
                     ": ideal channel delayed serialisation (depart ",
                     depart, ", serialized ", serialized, ")");
    } else {
        // Shadow reservation: FIFO behind everything accepted
        // earlier, at the channel's fixed rate.
        const Tick start = std::max(depart, ch.busy_until);
        const Tick expect = start + transferTime(bytes, rate_gbps);
        BEACON_CHECK(serialized == expect, name, " channel ",
                     ch.label, ": bandwidth violation, transfer of ",
                     bytes, " B departing t=", depart,
                     " reported done t=", serialized,
                     " but the shadow reservation says t=", expect,
                     " (channel busy until t=", ch.busy_until, ")");
        ch.expected_busy_ticks += expect - start;
        ch.busy_until = expect;
    }

    // FIFO: arrivals on one channel never go backwards in time.
    if (ch.has_arrival) {
        BEACON_CHECK(arrive >= ch.last_arrival, name, " channel ",
                     ch.label, ": packet overtaking, arrival t=",
                     arrive, " precedes the previous arrival t=",
                     ch.last_arrival);
    }
    ch.last_arrival = arrive;
    ch.has_arrival = true;
}

void
CxlLinkChecker::checkBusyTicks(unsigned channel,
                               Tick actual_busy_ticks) const
{
    BEACON_CHECK(channel < channels.size(), name,
                 ": unknown channel ", channel);
    const Channel &ch = channels[channel];
    BEACON_CHECK(actual_busy_ticks == ch.expected_busy_ticks, name,
                 " channel ", ch.label,
                 ": bandwidth conservation broken, channel reports ",
                 actual_busy_ticks, " busy ticks, shadow expects ",
                 ch.expected_busy_ticks);
}

void
CxlLinkChecker::onSubmit(Tick)
{
    ++n_submitted;
}

void
CxlLinkChecker::onDeliver(Tick)
{
    ++n_delivered;
    BEACON_CHECK(n_delivered <= n_submitted, name,
                 ": more messages delivered (", n_delivered,
                 ") than submitted (", n_submitted, ")");
}

void
CxlLinkChecker::finalize() const
{
    BEACON_CHECK(n_delivered == n_submitted, name,
                 ": request/response imbalance at end of run, ",
                 n_submitted, " messages submitted but ", n_delivered,
                 " delivered");
}

} // namespace beacon
