/**
 * @file
 * Process memory telemetry for the experiment JSON "memory" objects.
 *
 * The million-terminal tier is memory-bound before it is time-bound,
 * so every bench reports a measured budget: peak RSS for the whole
 * process plus per-structure byte counts (FoldedClos::memoryBytes and
 * UpDownOracle::memoryBytes, measured from their arrays;
 * ForwardingTables::memoryBytes, the exact size of an encoding that is
 * computed, not allocated).
 *
 * Peak RSS is read from /proc/self/status (VmHWM) on Linux with a
 * getrusage(RUSAGE_SELF) fallback; both are kernel-maintained
 * high-water marks, so the value is monotone within a process and
 * inherently machine-dependent - keep it out of any bit-stability
 * comparison (the CI determinism jobs filter the field by name).
 */
#ifndef RFC_UTIL_MEM_HPP
#define RFC_UTIL_MEM_HPP

#include <cstdint>

namespace rfc {

/** Peak resident set size of this process in bytes (0 if unknown). */
std::int64_t peakRssBytes();

} // namespace rfc

#endif // RFC_UTIL_MEM_HPP
