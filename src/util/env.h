/**
 * @file
 * Strict parsing of the library's environment knobs. An integer
 * knob (CL_THREADS, CL_POOL_MB) must be a plain decimal integer inside
 * the knob's range: no sign, no whitespace, no trailing characters, no
 * overflow. A named knob (CL_EXEC, CL_POOL, CL_SIMD) must be exactly
 * one of its accepted spellings. Anything else is rejected with one
 * warning and the knob keeps its default.
 */

#ifndef CL_UTIL_ENV_H
#define CL_UTIL_ENV_H

#include <cstdint>
#include <optional>
#include <span>

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

/** One accepted spelling of a named knob and the value it selects. */
struct EnvChoice
{
    const char *name;
    int value;
};

/** The value of the entry of @p choices spelled exactly @p s. */
std::optional<int> parseChoice(const char *s,
                               std::span<const EnvChoice> choices);

/** Named knob @p name: @p dflt when unset; its parseChoice value
 *  when it matches; otherwise warns, listing the accepted spellings,
 *  and returns @p dflt. Reads the environment on every call. */
int envChoice(const char *name, std::span<const EnvChoice> choices,
              int dflt);

} // namespace cl

#endif // CL_UTIL_ENV_H
