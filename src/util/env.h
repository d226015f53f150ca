/**
 * @file
 * Strict parsing of the library's integer environment knobs
 * (CL_THREADS, CL_POOL_MB). A knob value must be a plain decimal
 * integer inside the knob's range: no sign, no whitespace, no
 * trailing characters, no overflow. Anything else is rejected with
 * one warning and the knob keeps its default.
 */

#ifndef CL_UTIL_ENV_H
#define CL_UTIL_ENV_H

#include <cstdint>
#include <optional>

namespace cl {

/** @p s as a decimal integer in [@p lo, @p hi], or nullopt when it
 *  is empty, signed, has trailing characters or lies out of range. */
std::optional<std::uint64_t> parseUnsigned(const char *s, std::uint64_t lo,
                                           std::uint64_t hi);

/**
 * Integer knob @p name: @p dflt when unset; the parsed value when it
 * passes parseUnsigned(value, lo, hi); otherwise warns and returns
 * @p dflt. Reads the environment on every call.
 */
std::uint64_t envUnsigned(const char *name, std::uint64_t dflt,
                          std::uint64_t lo, std::uint64_t hi);

} // namespace cl

#endif // CL_UTIL_ENV_H
