#include "self_profile.hh"

#include <algorithm>

namespace beacon::obs
{

std::vector<std::string>
SelfProfileResult::topCategories(std::size_t k) const
{
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < by_cat.size(); ++i)
        if (by_cat[i].events)
            order.push_back(i);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return by_cat[a].wall_seconds >
                                by_cat[b].wall_seconds;
                     });
    if (order.size() > k)
        order.resize(k);
    std::vector<std::string> names;
    names.reserve(order.size());
    for (const std::size_t i : order)
        names.emplace_back(eventCatName(EventCat(i)));
    return names;
}

SelfProfileResult
SelfProfiler::result() const
{
    SelfProfileResult r;
    r.enabled = true;
    r.by_cat = by_cat;
    for (const SelfProfileCat &c : r.by_cat) {
        r.events += c.events;
        r.wall_seconds += c.wall_seconds;
    }
    return r;
}

} // namespace beacon::obs
