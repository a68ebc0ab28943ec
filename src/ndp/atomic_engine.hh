/**
 * @file
 * Atomic Engine (Fig. 5 c / Fig. 7).
 *
 * Resolves read-modify-write data races near the memory: the engine
 * serialises atomic operations that target the same memory word,
 * performs read -> arithmetic -> write-back against the DRAM path
 * supplied by the owner, and acknowledges the requester once the
 * write has been accepted. Operations on different words proceed in
 * parallel (the DRAM controller provides the real ordering there).
 */

#ifndef BEACON_NDP_ATOMIC_ENGINE_HH
#define BEACON_NDP_ATOMIC_ENGINE_HH

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "sim/callback.hh"
#include "sim/sim_object.hh"

namespace beacon
{

/** Atomic Engine configuration. */
struct AtomicEngineParams
{
    /** Arithmetic latency of one atomic update. */
    Tick compute_latency = 5000; // 4 DRAM cycles
};

/** Near-memory atomic RMW unit. */
class AtomicEngine : public SimObject
{
  public:
    /** Owner-provided DRAM read/write path (callback at data end). */
    using MemFn = InlineCallback<void(Completion)>;
    using DoneFn = Completion;

    AtomicEngine(const std::string &name, EventQueue &eq,
                 StatRegistry &stats,
                 const AtomicEngineParams &params = {})
        : SimObject(name, eq, stats),
          p(params),
          stat_ops(stat("atomicOps")),
          stat_conflicts(stat("sameWordConflicts"))
    {}

    /**
     * Perform one atomic RMW on the word identified by @p word_key.
     * @param read  issues the DRAM read of the word
     * @param write issues the DRAM write-back
     * @param done  acknowledgement to the requester
     */
    void
    perform(std::uint64_t word_key, MemFn read, MemFn write,
            DoneFn done)
    {
        ++stat_ops;
        Pending op{std::move(read), std::move(write), std::move(done)};
        auto [it, inserted] =
            word_queues.try_emplace(word_key);
        it->second.push_back(std::move(op));
        if (!inserted && it->second.size() > 1) {
            ++stat_conflicts;
            return; // an earlier op on this word is in flight
        }
        start(word_key);
    }

    std::uint64_t opsPerformed() const
    {
        return std::uint64_t(stat_ops.value());
    }

  private:
    struct Pending
    {
        MemFn read;
        MemFn write;
        DoneFn done;
    };

    void
    start(std::uint64_t word_key)
    {
        Pending &op = word_queues.at(word_key).front();
        op.read([this, word_key](Tick) {
            // Data at the engine: perform the arithmetic.
            eq.scheduleIn(
                p.compute_latency,
                [this, word_key] {
                    Pending &op2 = word_queues.at(word_key).front();
                    op2.write([this, word_key](Tick t) {
                        finish(word_key, t);
                    });
                },
                EventCat::Ndp);
        });
    }

    void
    finish(std::uint64_t word_key, Tick t)
    {
        auto it = word_queues.find(word_key);
        Pending op = std::move(it->second.front());
        it->second.pop_front();
        const bool more = !it->second.empty();
        if (!more)
            word_queues.erase(it);
        op.done(t);
        if (more)
            start(word_key);
    }

    AtomicEngineParams p;
    std::unordered_map<std::uint64_t, std::deque<Pending>> word_queues;
    Counter &stat_ops;
    Counter &stat_conflicts;
};

} // namespace beacon

#endif // BEACON_NDP_ATOMIC_ENGINE_HH
