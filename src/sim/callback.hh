/**
 * @file
 * The simulator's one callable type: a move-only, small-buffer
 * type-erased function.
 *
 * Events are `EventCallback` (`void()`); memory-path completions are
 * `Completion` (`void(Tick)`, fired once with the tick the data
 * arrived). Neither is ever copied, so a callback may own move-only
 * state (a std::unique_ptr, another Completion) outright; no
 * shared_ptr holder is needed to make a capture copyable.
 */

#ifndef BEACON_SIM_CALLBACK_HH
#define BEACON_SIM_CALLBACK_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/units.hh"

namespace beacon
{

/** Inline buffer of a Completion and of the default InlineCallback. */
inline constexpr std::size_t callback_inline_bytes = 48;

template <typename Signature,
          std::size_t Capacity = callback_inline_bytes>
class InlineCallback;

/**
 * Move-only type-erased `R(Args...)` callable with inline storage.
 *
 * A callable of at most Capacity bytes that is pointer-aligned and
 * nothrow-movable is stored inside the object, so building one
 * allocates nothing; a larger callable is boxed on the heap behind a
 * std::unique_ptr, which is what then lives inline. The held
 * callable may be invoked any number of times.
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineCallback<R(Args...), Capacity>
{
  public:
    /** True when a callable of type @p Fn is stored without a box. */
    template <typename Fn>
    static constexpr bool
    storesInline()
    {
        return sizeof(Fn) <= Capacity &&
               alignof(Fn) <= alignof(void *) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    InlineCallback() = default;

    // Implicit, like std::function's, so call sites pass lambdas.
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &,
                                        Args...>>>
    InlineCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (storesInline<Fn>()) {
            emplace<Fn>(std::forward<F>(f));
        } else {
            auto box = [fn = std::make_unique<Fn>(std::forward<F>(f))](
                           Args... args) -> R {
                return (*fn)(std::forward<Args>(args)...);
            };
            emplace<decltype(box)>(std::move(box));
        }
    }

    InlineCallback(InlineCallback &&other) noexcept { take(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const { return ops != nullptr; }

    /** Invoke the held callable (which must exist). */
    R
    operator()(Args... args)
    {
        return ops->invoke(buf, std::forward<Args>(args)...);
    }

    /** Destroy the held callable and its captures now. */
    void
    reset()
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into the first buffer, destroy the second. */
        void (*relocate)(void *, void *);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops inline_ops{
        [](void *p, Args &&...args) -> R {
            return (*static_cast<Fn *>(p))(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            Fn *from = static_cast<Fn *>(src);
            std::construct_at(static_cast<Fn *>(dst), std::move(*from));
            std::destroy_at(from);
        },
        [](void *p) { std::destroy_at(static_cast<Fn *>(p)); },
    };

    template <typename Fn, typename F>
    void
    emplace(F &&f)
    {
        static_assert(storesInline<Fn>());
        std::construct_at(reinterpret_cast<Fn *>(buf),
                          std::forward<F>(f));
        ops = &inline_ops<Fn>;
    }

    void
    take(InlineCallback &other) noexcept
    {
        if (other.ops) {
            other.ops->relocate(buf, other.buf);
            ops = std::exchange(other.ops, nullptr);
        }
    }

    alignas(void *) unsigned char buf[Capacity];
    const Ops *ops = nullptr;
};

/**
 * A memory-path completion: fired once with the tick its data
 * arrived (DRAM data end, link arrival, fabric delivery).
 */
using Completion = InlineCallback<void(Tick)>;

/**
 * An event-queue callback. Its buffer holds a Completion plus a tick,
 * so an event that fires a completion at a known tick (see
 * CompleteAt) never boxes.
 */
using EventCallback =
    InlineCallback<void(), sizeof(Completion) + sizeof(Tick)>;

/** The event that fires @c done with @c when. */
struct CompleteAt
{
    Completion done;
    Tick when;

    void operator()() { done(when); }
};

} // namespace beacon

#endif // BEACON_SIM_CALLBACK_HH
