/**
 * @file
 * A fixed reference kernel that reads the host's current speed.
 *
 * The shared host this benchmark runs on changes speed in phases of
 * seconds to minutes (by up to 1.6x), because other tenants contend
 * for the caches and memory. An ALU loop does not see this; code
 * shaped like the simulator's hot path does. The kernel here is that
 * shape: an event heap, a table read at random, and a bounded
 * request queue scanned for a row hit, with a std::function call per
 * retired request. It touches nothing of the simulator, so a change
 * to the simulator cannot change the kernel's time.
 *
 * The end-to-end times are scaled by reference_nominal_s over the
 * kernel's mean time around them (endToEnd() in main.cc): they read
 * as host seconds on a host where the kernel takes
 * reference_nominal_s, about the 4-vCPU Xeon VM's speed when quiet.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

namespace perfbench
{

/** The kernel's time on the quiet host the scale is anchored to. */
inline constexpr double reference_nominal_s = 0.1;

/** Runs the reference kernel once; returns its host wall seconds. */
double referenceSeconds();

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
