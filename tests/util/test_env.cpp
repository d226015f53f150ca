/** Tests for the strict knob parsers and the knobs built on them
 *  (CL_THREADS, CL_POOL_MB, CL_EXEC, CL_POOL, CL_SIMD): every
 *  malformed value is rejected with one warning and the knob keeps
 *  its default. */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "poly/polypool.h"
#include "rns/simd/kernels.h"
#include "runtime/taskgraph.h"
#include "util/env.h"
#include "util/threadpool.h"

namespace cl {
namespace {

constexpr std::uint64_t kU64Max = ~std::uint64_t{0};

/** Sets an environment variable for the scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (saved_)
            setenv(name_, saved_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

unsigned
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

TEST(ParseUnsigned, AcceptsPlainDecimalInRange)
{
    EXPECT_EQ(parseUnsigned("0", 0, 10), 0u);
    EXPECT_EQ(parseUnsigned("10", 0, 10), 10u);
    EXPECT_EQ(parseUnsigned("007", 0, 10), 7u);
    EXPECT_EQ(parseUnsigned("18446744073709551615", 0, kU64Max), kU64Max);
}

TEST(ParseUnsigned, RejectsTrailingCharacters)
{
    for (const char *s : {"4x", "4 ", "4.0", "1e3", "0x10", "256MB"})
        EXPECT_FALSE(parseUnsigned(s, 0, kU64Max)) << s;
}

TEST(ParseUnsigned, RejectsEmptyWhitespaceAndSigns)
{
    for (const char *s : {"", " 4", "+4", "-1", "-0", "banana"})
        EXPECT_FALSE(parseUnsigned(s, 0, kU64Max)) << s;
}

TEST(ParseUnsigned, RejectsOverflowAndOutOfRange)
{
    EXPECT_FALSE(parseUnsigned("18446744073709551616", 0, kU64Max));
    EXPECT_FALSE(parseUnsigned("99999999999999999999", 0, kU64Max));
    EXPECT_FALSE(parseUnsigned("11", 0, 10));
    EXPECT_FALSE(parseUnsigned("0", 1, 10));
}

TEST(EnvUnsigned, UnsetKnobUsesDefaultSilently)
{
    unsetenv("CL_TEST_KNOB");
    testing::internal::CaptureStderr();
    EXPECT_EQ(envUnsigned("CL_TEST_KNOB", 7, 0, 10), 7u);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

/** Builds a pool from CL_THREADS=@p value; returns its size and
 *  whatever it printed to stderr. */
std::pair<unsigned, std::string>
poolFromEnv(const char *value)
{
    ScopedEnv env("CL_THREADS", value);
    testing::internal::CaptureStderr();
    const unsigned threads = ThreadPool(0).threads();
    return {threads, testing::internal::GetCapturedStderr()};
}

TEST(ClThreads, ValidValueSizesThePool)
{
    const auto [threads, err] = poolFromEnv("3");
    EXPECT_EQ(threads, 3u);
    EXPECT_EQ(err, "");
}

TEST(ClThreads, TrailingGarbageWarnsAndUsesHardwareConcurrency)
{
    const auto [threads, err] = poolFromEnv("4x");
    EXPECT_EQ(threads, hardwareThreads());
    EXPECT_NE(err.find("ignoring malformed CL_THREADS='4x'"),
              std::string::npos)
        << err;
}

TEST(ClThreads, NegativeWarnsAndUsesHardwareConcurrency)
{
    const auto [threads, err] = poolFromEnv("-2");
    EXPECT_EQ(threads, hardwareThreads());
    EXPECT_NE(err.find("CL_THREADS='-2'"), std::string::npos) << err;
}

TEST(ClThreads, OverflowWarnsAndUsesHardwareConcurrency)
{
    // Does not fit 32 bits; a narrowing cast would ask for ~1.2
    // billion workers.
    const auto [threads, err] = poolFromEnv("99999999999");
    EXPECT_EQ(threads, hardwareThreads());
    EXPECT_NE(err.find("CL_THREADS='99999999999'"), std::string::npos)
        << err;
}

TEST(ClThreads, AboveTheWorkerLimitWarns)
{
    const auto [threads, err] = poolFromEnv("1025");
    EXPECT_EQ(threads, hardwareThreads());
    EXPECT_NE(err.find("CL_THREADS='1025'"), std::string::npos) << err;
}

/** polyPoolCapBytes() under CL_POOL_MB=@p value, with stderr. */
std::pair<std::size_t, std::string>
poolCapFromEnv(const char *value)
{
    ScopedEnv env("CL_POOL_MB", value);
    testing::internal::CaptureStderr();
    const std::size_t cap = polyPoolCapBytes();
    return {cap, testing::internal::GetCapturedStderr()};
}

constexpr std::size_t kDefaultPoolCap = std::size_t{256} << 20;

TEST(ClPoolMb, ValidValuesSetTheCap)
{
    EXPECT_EQ(poolCapFromEnv("64"),
              std::make_pair(std::size_t{64} << 20, std::string()));
    EXPECT_EQ(poolCapFromEnv("0"), std::make_pair(std::size_t{0},
                                                  std::string()));
}

TEST(ClPoolMb, TrailingGarbageWarnsAndKeepsDefault)
{
    const auto [cap, err] = poolCapFromEnv("64MB");
    EXPECT_EQ(cap, kDefaultPoolCap);
    EXPECT_NE(err.find("ignoring malformed CL_POOL_MB='64MB'"),
              std::string::npos)
        << err;
}

TEST(ClPoolMb, NegativeWarnsAndKeepsDefault)
{
    const auto [cap, err] = poolCapFromEnv("-1");
    EXPECT_EQ(cap, kDefaultPoolCap);
    EXPECT_NE(err.find("CL_POOL_MB='-1'"), std::string::npos) << err;
}

TEST(ClPoolMb, ByteCapOverflowWarnsAndKeepsDefault)
{
    // 2^44 MiB shifted to bytes wraps a 64-bit size_t to a cap of 0.
    const auto [cap, err] = poolCapFromEnv("17592186044416");
    EXPECT_EQ(cap, kDefaultPoolCap);
    EXPECT_NE(err.find("CL_POOL_MB='17592186044416'"), std::string::npos)
        << err;
}

TEST(ClPoolMb, IntegerOverflowWarnsAndKeepsDefault)
{
    const auto [cap, err] = poolCapFromEnv("99999999999999999999");
    EXPECT_EQ(cap, kDefaultPoolCap);
    EXPECT_NE(err.find("CL_POOL_MB='99999999999999999999'"),
              std::string::npos)
        << err;
}

/** @p read() with knob @p name set to @p value (unset when null),
 *  and whatever it printed to stderr. */
template <typename Read>
auto
readKnob(const char *name, const char *value, Read read)
{
    ScopedEnv env(name, value ? value : "");
    if (!value)
        unsetenv(name);
    testing::internal::CaptureStderr();
    const auto v = read();
    return std::make_pair(v, testing::internal::GetCapturedStderr());
}

TEST(ParseChoice, MatchesExactSpellingsOnly)
{
    constexpr EnvChoice kChoices[] = {{"on", 1}, {"off", 0}};
    EXPECT_EQ(parseChoice("on", kChoices), 1);
    EXPECT_EQ(parseChoice("off", kChoices), 0);
    for (const char *s : {"", "ON", " on", "on ", "of", "offf"})
        EXPECT_FALSE(parseChoice(s, kChoices)) << s;
}

TEST(ClExec, AcceptedSpellingsSelectTheMode)
{
    EXPECT_EQ(readKnob("CL_EXEC", "serial", execModeFromEnv),
              std::make_pair(ExecMode::Serial, std::string()));
    EXPECT_EQ(readKnob("CL_EXEC", "graph", execModeFromEnv),
              std::make_pair(ExecMode::Graph, std::string()));
    EXPECT_EQ(execModeByName("serial"), ExecMode::Serial);
}

TEST(ClExec, MalformedValueWarnsAndKeepsGraph)
{
    const auto [mode, err] = readKnob("CL_EXEC", "Serial", execModeFromEnv);
    EXPECT_EQ(mode, ExecMode::Graph);
    EXPECT_NE(err.find("ignoring malformed CL_EXEC='Serial' "
                       "(want serial|graph)"),
              std::string::npos)
        << err;
}

TEST(ClPool, AcceptedSpellingsSetTheFlag)
{
    for (const char *off : {"0", "off", "false"}) {
        EXPECT_EQ(readKnob("CL_POOL", off, polyPoolEnabledFromEnv),
                  std::make_pair(false, std::string()));
    }
    for (const char *on : {"1", "on", "true"}) {
        EXPECT_EQ(readKnob("CL_POOL", on, polyPoolEnabledFromEnv),
                  std::make_pair(true, std::string()));
    }
}

TEST(ClPool, MalformedValueWarnsAndKeepsDefault)
{
    const bool dflt =
        readKnob("CL_POOL", nullptr, polyPoolEnabledFromEnv).first;
    const auto [on, err] = readKnob("CL_POOL", "yes", polyPoolEnabledFromEnv);
    EXPECT_EQ(on, dflt);
    EXPECT_NE(err.find("ignoring malformed CL_POOL='yes'"),
              std::string::npos)
        << err;
}

TEST(ClSimd, EachBackendIsSelectedOrFallsBackToScalar)
{
    for (SimdBackend b :
         {SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Avx512}) {
        const auto [got, err] =
            readKnob("CL_SIMD", simdBackendName(b), simdBackendFromEnv);
        if (kernelTableFor(b)) {
            EXPECT_EQ(got, b);
            EXPECT_EQ(err, "");
        } else {
            EXPECT_EQ(got, SimdBackend::Scalar);
            EXPECT_NE(err.find("unavailable on this host"),
                      std::string::npos)
                << err;
        }
    }
}

TEST(ClSimd, MalformedValueWarnsAndKeepsDefault)
{
    const SimdBackend dflt =
        readKnob("CL_SIMD", nullptr, simdBackendFromEnv).first;
    const auto [got, err] = readKnob("CL_SIMD", "AVX2", simdBackendFromEnv);
    EXPECT_EQ(got, dflt);
    EXPECT_NE(err.find("ignoring malformed CL_SIMD='AVX2' "
                       "(want scalar|avx2|avx512)"),
              std::string::npos)
        << err;
}

} // namespace
} // namespace cl
