/**
 * @file
 * Strict parsing of numbers that arrive from outside the program
 * (command-line flags, environment variables).
 */

#ifndef BEACON_COMMON_PARSE_HH
#define BEACON_COMMON_PARSE_HH

#include <charconv>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>

namespace beacon
{

/**
 * Parse @p text as a positive integer: decimal digits only (no sign,
 * whitespace or trailing junk), greater than zero and at most
 * @p max. Returns nothing for any other text, so callers can reject
 * malformed input instead of silently falling back to a default.
 */
template <typename T>
std::optional<T>
parsePositive(std::string_view text,
              T max = std::numeric_limits<T>::max())
{
    static_assert(std::is_unsigned_v<T>);
    T value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value == 0 || value > max)
        return std::nullopt;
    return value;
}

} // namespace beacon

#endif // BEACON_COMMON_PARSE_HH
