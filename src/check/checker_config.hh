/**
 * @file
 * The switch for the runtime verification layer.
 *
 * Checkers are independent shadow models that re-validate what the
 * timing models already enforce; they cost time and exist to catch
 * simulator bugs, so they default to off and are switched on, all
 * together, by the fuzz/CI harnesses (or globally via the
 * BEACON_CHECKERS environment variable): the DRAM protocol checker,
 * the CXL link checker, and the NDP accounting invariants.
 */

#ifndef BEACON_CHECK_CHECKER_CONFIG_HH
#define BEACON_CHECK_CHECKER_CONFIG_HH

#include <cstdlib>

namespace beacon
{

/** Whether components instantiate their checkers. */
struct CheckerConfig
{
    /** Arm every checker. */
    bool enabled = false;

    /** Every checker enabled. */
    static CheckerConfig
    all()
    {
        return CheckerConfig{true};
    }

    /** Everything off (the default-constructed state, spelled out). */
    static CheckerConfig
    none()
    {
        return CheckerConfig{};
    }

    /**
     * all() when the BEACON_CHECKERS environment variable is set to a
     * non-empty value other than "0", none() otherwise. Lets CI runs
     * arm every checker without touching individual harnesses.
     */
    static CheckerConfig
    fromEnv()
    {
        const char *v = std::getenv("BEACON_CHECKERS");
        if (v != nullptr && v[0] != '\0' &&
            !(v[0] == '0' && v[1] == '\0')) {
            return all();
        }
        return none();
    }
};

} // namespace beacon

#endif // BEACON_CHECK_CHECKER_CONFIG_HH
