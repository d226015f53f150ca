#include "polypool.h"

#include <atomic>
#include <mutex>
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

/** Set once the pool is destroyed at static destruction; later frees
 *  (objects destroyed after it) pass straight to operator delete. */
std::atomic<bool> g_poolDead{false};

std::size_t
capBytes()
{
    static const std::size_t cap = polyPoolCapBytes();
    return cap;
}

/** Blocks taken off the lists, with their byte sizes. */
using Blocks = std::vector<std::pair<void *, std::size_t>>;

/** Delete blocks taken off the lists (outside the lock). */
void
release(const Blocks &blocks)
{
    for (const auto &[p, size] : blocks) {
        ::operator delete(p);
        g_cachedBytes.fetch_sub(size, std::memory_order_relaxed);
    }
}

/**
 * The process-wide free lists, keyed by exact byte size (PolyData
 * buffers are allocated at exact towers*N sizes, so exact keying
 * recycles every same-shape slab). One mutex guards them; blocks
 * handed back to the heap are deleted after it is released.
 */
struct Pool
{
    std::mutex m;
    std::unordered_map<std::size_t, std::vector<void *>> bins;
    std::size_t bytes = 0; ///< Parked bytes (guarded by m).

    /**
     * Unlink parked blocks totalling at least @p want bytes (or all
     * of them) into @p out, emptying the bins with the most parked
     * bytes first: the shapes whose demand has fallen furthest.
     * Caller holds m.
     */
    void
    takeVictims(std::size_t want, Blocks &out)
    {
        std::size_t freed = 0;
        while (freed < want && bytes > 0) {
            auto victim = bins.end();
            std::size_t most = 0;
            for (auto it = bins.begin(); it != bins.end(); ++it) {
                const std::size_t held = it->first * it->second.size();
                if (held > most) {
                    most = held;
                    victim = it;
                }
            }
            auto &blocks = victim->second;
            while (!blocks.empty() && freed < want) {
                out.emplace_back(blocks.back(), victim->first);
                blocks.pop_back();
                freed += victim->first;
                bytes -= victim->first;
            }
        }
    }

    /** Unlink every parked block into @p out. Caller holds m. */
    void
    takeAll(Blocks &out)
    {
        for (auto &[size, blocks] : bins) {
            for (void *b : blocks)
                out.emplace_back(b, size);
        }
        bins.clear();
        bytes = 0;
    }

    ~Pool()
    {
        Blocks blocks;
        takeAll(blocks);
        release(blocks);
        g_poolDead.store(true, std::memory_order_relaxed);
    }
};

Pool &
pool()
{
    static Pool p;
    return p;
}

bool
pooled(std::size_t bytes)
{
    return polyPoolEnabled() && bytes >= kMinPooledBytes &&
           !g_poolDead.load(std::memory_order_relaxed);
}

} // namespace

bool
polyPoolEnabled()
{
    int e = g_enabled.load(std::memory_order_relaxed);
    if (e < 0) {
        e = polyPoolEnabledFromEnv() ? 1 : 0;
        g_enabled.store(e, std::memory_order_relaxed);
    }
    return e != 0;
}

void
polyPoolSetEnabled(bool on)
{
    g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool
polyPoolEnabledFromEnv()
{
    static constexpr EnvChoice kChoices[] = {
        {"0", 0}, {"off", 0}, {"false", 0},
        {"1", 1}, {"on", 1},  {"true", 1},
    };
    return envChoice("CL_POOL", kChoices, CL_POOL_UNDER_ASAN ? 0 : 1) != 0;
}

std::size_t
polyPoolCapBytes()
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
    if (g_poolDead.load(std::memory_order_relaxed))
        return;
    Pool &p = pool();
    Blocks blocks;
    {
        std::lock_guard<std::mutex> lk(p.m);
        p.takeAll(blocks);
    }
    release(blocks);
}

void *
polyPoolAllocate(std::size_t bytes)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_liveBytes.fetch_add(bytes, std::memory_order_relaxed);
    if (pooled(bytes)) {
        Pool &p = pool();
        Blocks victims;
        {
            std::lock_guard<std::mutex> lk(p.m);
            auto it = p.bins.find(bytes);
            if (it != p.bins.end() && !it->second.empty()) {
                void *b = it->second.back();
                it->second.pop_back();
                p.bytes -= bytes;
                g_hits.fetch_add(1, std::memory_order_relaxed);
                g_cachedBytes.fetch_sub(bytes, std::memory_order_relaxed);
                return b;
            }
            // A miss grows the live set by @p bytes; give back as many
            // parked bytes so live + parked stays within the peak.
            p.takeVictims(bytes, victims);
        }
        release(victims);
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
    if (pooled(bytes)) {
        Pool &pl = pool();
        std::lock_guard<std::mutex> lk(pl.m);
        if (pl.bytes + bytes <= capBytes()) {
            pl.bins[bytes].push_back(p);
            pl.bytes += bytes;
            g_parked.fetch_add(1, std::memory_order_relaxed);
            g_cachedBytes.fetch_add(bytes, std::memory_order_relaxed);
            return;
        }
    }
    ::operator delete(p);
}

} // namespace cl
