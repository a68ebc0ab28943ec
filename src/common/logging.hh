/**
 * @file
 * Status-message and error-reporting helpers in the gem5 idiom.
 *
 * panic()  - an internal invariant was violated (a simulator bug);
 *            aborts so a debugger or core dump can inspect the state.
 * fatal()  - the simulation cannot continue because of a user error
 *            (bad configuration, invalid argument); exits with code 1.
 * warn()   - something is approximate or suspicious but survivable.
 * inform() - plain status output.
 */

#ifndef BEACON_COMMON_LOGGING_HH
#define BEACON_COMMON_LOGGING_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace beacon
{

/** Verbosity levels for runtime log filtering. */
enum class LogLevel
{
    Silent = 0,
    Warn = 1,
    Inform = 2,
    Debug = 3,
};

/** Global log level; messages above this level are suppressed. */
LogLevel logLevel();

/** Set the global log level (e.g., from a command-line flag). */
void setLogLevel(LogLevel level);

namespace detail
{

/** Fold any set of streamable arguments into one string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

} // namespace beacon

/** Abort with a message; use for internal invariant violations. */
#define BEACON_PANIC(...)                                                  \
    ::beacon::detail::panicImpl(                                           \
        __FILE__, __LINE__, ::beacon::detail::formatMessage(__VA_ARGS__))

/** Exit with a message; use for user-caused unrecoverable errors. */
#define BEACON_FATAL(...)                                                  \
    ::beacon::detail::fatalImpl(                                           \
        __FILE__, __LINE__, ::beacon::detail::formatMessage(__VA_ARGS__))

/** Emit a warning (does not stop the simulation). */
#define BEACON_WARN(...)                                                   \
    ::beacon::detail::warnImpl(::beacon::detail::formatMessage(__VA_ARGS__))

/** Emit an informational status message. */
#define BEACON_INFORM(...)                                                 \
    ::beacon::detail::informImpl(                                          \
        ::beacon::detail::formatMessage(__VA_ARGS__))

/** Panic if a simulator-internal invariant does not hold. */
#define BEACON_ASSERT(cond, ...)                                           \
    do {                                                                   \
        if (!(cond)) {                                                     \
            BEACON_PANIC("assertion '", #cond, "' failed: ",               \
                         ::beacon::detail::formatMessage(__VA_ARGS__));    \
        }                                                                  \
    } while (0)

/**
 * Always-on invariant check. Unlike BEACON_ASSERT (whose wording
 * targets internal simulator bugs), BEACON_CHECK is the macro of the
 * verification layer (src/check): protocol checkers use it so that a
 * JEDEC/CXL violation aborts with a diagnosable message in every
 * build type, including Release.
 */
#define BEACON_CHECK(cond, ...)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            BEACON_PANIC("check '", #cond, "' failed: ",                   \
                         ::beacon::detail::formatMessage(__VA_ARGS__));    \
        }                                                                  \
    } while (0)

/**
 * Debug-only invariant check; compiled out (condition not evaluated)
 * when NDEBUG is defined, so hot-path checks cost nothing in
 * Release/RelWithDebInfo builds.
 */
#ifdef NDEBUG
#define BEACON_DCHECK(cond, ...)                                           \
    do {                                                                   \
    } while (0)
#else
#define BEACON_DCHECK(cond, ...) BEACON_CHECK(cond, __VA_ARGS__)
#endif

#endif // BEACON_COMMON_LOGGING_HH
