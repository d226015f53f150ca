#include "env.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/common.h"

namespace cl {

std::optional<std::uint64_t>
parseUnsigned(const char *s, std::uint64_t lo, std::uint64_t hi)
{
    // from_chars into an unsigned type rejects a sign and leading
    // whitespace, and reports overflow instead of wrapping.
    const char *end = s + std::strlen(s);
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(s, end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi)
        return std::nullopt;
    return v;
}

std::uint64_t
envUnsigned(const char *name, std::uint64_t dflt, std::uint64_t lo,
            std::uint64_t hi)
{
    const char *env = std::getenv(name);
    if (!env)
        return dflt;
    if (const auto v = parseUnsigned(env, lo, hi))
        return *v;
    warn(std::string("ignoring malformed ") + name + "='" + env +
         "' (want an integer in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]); using " + std::to_string(dflt));
    return dflt;
}

std::optional<int>
parseChoice(const char *s, std::span<const EnvChoice> choices)
{
    for (const EnvChoice &c : choices) {
        if (std::strcmp(s, c.name) == 0)
            return c.value;
    }
    return std::nullopt;
}

int
envChoice(const char *name, std::span<const EnvChoice> choices, int dflt)
{
    const char *env = std::getenv(name);
    if (!env)
        return dflt;
    if (const auto v = parseChoice(env, choices))
        return *v;
    std::string want;
    for (const EnvChoice &c : choices) {
        if (!want.empty())
            want += '|';
        want += c.name;
    }
    warn(std::string("ignoring malformed ") + name + "='" + env +
         "' (want " + want + ")");
    return dflt;
}

} // namespace cl
