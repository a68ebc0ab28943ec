#include "logging.hh"

#include <atomic>
#include <cstdlib>

namespace beacon
{

namespace
{

// Atomic: parallel sweep workers (accel/sweep.hh) may warn while
// another thread adjusts verbosity; a plain global would race.
std::atomic<LogLevel> global_log_level{LogLevel::Inform};

} // namespace

LogLevel
logLevel()
{
    return global_log_level.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    global_log_level.store(level, std::memory_order_relaxed);
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Inform)
        std::cout << "info: " << msg << std::endl;
}

} // namespace detail

} // namespace beacon
