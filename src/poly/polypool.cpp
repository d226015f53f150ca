#include "polypool.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <unordered_map>
#include <vector>

#include "util/common.h"
#include "util/env.h"

#if defined(__SANITIZE_ADDRESS__)
#define CL_POOL_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CL_POOL_UNDER_ASAN 1
#endif
#endif
#ifndef CL_POOL_UNDER_ASAN
#define CL_POOL_UNDER_ASAN 0
#endif

namespace cl {

namespace {

/** Blocks below this size are not worth a free-list lookup. */
constexpr std::size_t kMinPooledBytes = 1024;

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_frees{0};
std::atomic<std::uint64_t> g_parked{0};
std::atomic<std::uint64_t> g_liveBytes{0};
std::atomic<std::uint64_t> g_cachedBytes{0};

/** -1 = read CL_POOL on first use. */
std::atomic<int> g_enabled{-1};

int
envEnabled()
{
    if (const char *env = std::getenv("CL_POOL")) {
        const std::string v(env);
        if (v == "0" || v == "off" || v == "false")
            return 0;
        if (v == "1" || v == "on" || v == "true")
            return 1;
        warn("ignoring malformed CL_POOL='" + v + "'");
    }
    return CL_POOL_UNDER_ASAN ? 0 : 1;
}

std::size_t
threadCapBytes()
{
    static const std::size_t cap = polyPoolThreadCapBytes();
    return cap;
}

/**
 * Per-thread free lists, keyed by exact byte size (PolyData buffers
 * are allocated at exact towers*N sizes, so exact keying recycles
 * every same-shape slab). Destroyed at thread exit, releasing parked
 * blocks; `t_cacheDead` keeps later frees on the same thread (static
 * destruction order) from touching the destroyed map.
 */
struct Cache
{
    std::unordered_map<std::size_t, std::vector<void *>> bins;
    std::size_t bytes = 0;

    ~Cache();
};

thread_local bool t_cacheDead = false;

Cache &
cache()
{
    thread_local Cache c;
    return c;
}

Cache::~Cache()
{
    for (auto &[size, blocks] : bins) {
        for (void *p : blocks) {
            ::operator delete(p);
            g_cachedBytes.fetch_sub(size, std::memory_order_relaxed);
        }
    }
    bins.clear();
    bytes = 0;
    t_cacheDead = true;
}

} // namespace

bool
polyPoolEnabled()
{
    int e = g_enabled.load(std::memory_order_relaxed);
    if (e < 0) {
        e = envEnabled();
        g_enabled.store(e, std::memory_order_relaxed);
    }
    return e != 0;
}

void
polyPoolSetEnabled(bool on)
{
    g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::size_t
polyPoolThreadCapBytes()
{
    constexpr std::uint64_t kDefaultMb = 256;
    // The largest MiB count whose byte cap still fits a size_t.
    constexpr std::uint64_t kMaxMb = SIZE_MAX >> 20;
    return static_cast<std::size_t>(
               envUnsigned("CL_POOL_MB", kDefaultMb, 0, kMaxMb))
           << 20;
}

PolyPoolStats
polyPoolStats()
{
    PolyPoolStats s;
    s.allocs = g_allocs.load(std::memory_order_relaxed);
    s.hits = g_hits.load(std::memory_order_relaxed);
    s.misses = g_misses.load(std::memory_order_relaxed);
    s.frees = g_frees.load(std::memory_order_relaxed);
    s.parked = g_parked.load(std::memory_order_relaxed);
    s.liveBytes = g_liveBytes.load(std::memory_order_relaxed);
    s.cachedBytes = g_cachedBytes.load(std::memory_order_relaxed);
    return s;
}

void
polyPoolResetStats()
{
    g_allocs.store(0, std::memory_order_relaxed);
    g_hits.store(0, std::memory_order_relaxed);
    g_misses.store(0, std::memory_order_relaxed);
    g_frees.store(0, std::memory_order_relaxed);
    g_parked.store(0, std::memory_order_relaxed);
    // liveBytes/cachedBytes track real state; never reset.
}

void
polyPoolTrim()
{
    if (t_cacheDead)
        return;
    Cache &c = cache();
    for (auto &[size, blocks] : c.bins) {
        for (void *p : blocks) {
            ::operator delete(p);
            g_cachedBytes.fetch_sub(size, std::memory_order_relaxed);
        }
    }
    c.bins.clear();
    c.bytes = 0;
}

void *
polyPoolAllocate(std::size_t bytes)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_liveBytes.fetch_add(bytes, std::memory_order_relaxed);
    if (polyPoolEnabled() && bytes >= kMinPooledBytes && !t_cacheDead) {
        Cache &c = cache();
        auto it = c.bins.find(bytes);
        if (it != c.bins.end() && !it->second.empty()) {
            void *p = it->second.back();
            it->second.pop_back();
            c.bytes -= bytes;
            g_hits.fetch_add(1, std::memory_order_relaxed);
            g_cachedBytes.fetch_sub(bytes, std::memory_order_relaxed);
            return p;
        }
    }
    g_misses.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes);
}

void
polyPoolDeallocate(void *p, std::size_t bytes) noexcept
{
    if (p == nullptr)
        return;
    g_frees.fetch_add(1, std::memory_order_relaxed);
    g_liveBytes.fetch_sub(bytes, std::memory_order_relaxed);
    if (polyPoolEnabled() && bytes >= kMinPooledBytes && !t_cacheDead &&
        cache().bytes + bytes <= threadCapBytes()) {
        Cache &c = cache();
        c.bins[bytes].push_back(p);
        c.bytes += bytes;
        g_parked.fetch_add(1, std::memory_order_relaxed);
        g_cachedBytes.fetch_add(bytes, std::memory_order_relaxed);
        return;
    }
    ::operator delete(p);
}

} // namespace cl
