#include "reference.hh"

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

namespace perfbench
{

namespace
{

constexpr std::uint32_t heap_events = 1u << 14;
constexpr std::uint32_t table_words = 1u << 16; // 256 KiB
constexpr std::size_t queue_limit = 256;
constexpr unsigned banks = 64;
constexpr int steps = 250000;

struct Event
{
    std::uint64_t when;
    std::uint32_t id;

    bool operator<(const Event &o) const { return when > o.when; }
};

struct Request
{
    std::uint64_t addr;
    std::uint64_t enqueued;
    std::function<void()> done;
    std::uint32_t bank;
    std::uint32_t row;
};

std::uint64_t
next(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
}

/** One pass of the kernel; returns a checksum of its work. */
std::uint64_t
kernel()
{
    std::uint64_t rng = 99;
    std::uint64_t sum = 0;
    std::vector<std::uint32_t> table(table_words, 1);
    std::priority_queue<Event> heap;
    for (std::uint32_t i = 0; i < heap_events; ++i)
        heap.push({next(rng) >> 40, i});
    std::deque<Request> queue;
    std::vector<std::uint32_t> open_row(banks, 0);

    for (int step = 0; step < steps; ++step) {
        const Event e = heap.top();
        heap.pop();
        const std::uint64_t r = next(rng);
        std::uint32_t &word = table[(r >> 20) % table_words];
        word += e.id;
        sum += word;
        heap.push({e.when + 1 + (r >> 52), e.id});
        if (queue.size() < queue_limit)
            queue.push_back({r, e.when, [&sum] { ++sum; },
                             std::uint32_t(r >> 58) % banks,
                             std::uint32_t(r >> 24) & 255});
        std::size_t pick = 0;
        bool hit = false;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (open_row[queue[i].bank] == queue[i].row) {
                pick = i;
                hit = true;
                break;
            }
        }
        Request &req = queue[pick];
        open_row[req.bank] = req.row;
        if (hit || (r & 3) == 0) {
            req.done();
            queue.erase(queue.begin() + std::ptrdiff_t(pick));
        }
    }
    return sum;
}

} // namespace

double
referenceSeconds()
{
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t sum = kernel();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    // Using the checksum keeps the compiler from dropping the work.
    if (sum == 0)
        throw std::logic_error("reference kernel did no work");
    return s;
}

} // namespace perfbench
