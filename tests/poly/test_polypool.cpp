/** Tests for the pooled slab allocator behind RnsPoly: reuse, live
 *  buffers never aliased, stats bookkeeping, leak-free trim, and
 *  clean pass-through when disabled. */

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "poly/polypool.h"
#include "poly/rnspoly.h"
#include "rns/primes.h"

namespace cl {
namespace {

/** Save/restore the enable flag and trim around each test so the
 *  assertions see only their own traffic. */
class PolyPoolTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prev_ = polyPoolEnabled();
        polyPoolSetEnabled(true);
        polyPoolTrim();
        polyPoolResetStats();
    }
    void
    TearDown() override
    {
        polyPoolTrim();
        polyPoolSetEnabled(prev_);
    }
    bool prev_ = false;
};

// Large enough to be pooled (the pool passes tiny blocks through).
constexpr std::size_t kBytes = 1 << 16;

TEST_F(PolyPoolTest, FreedBlockIsReusedSameThread)
{
    void *a = polyPoolAllocate(kBytes);
    polyPoolDeallocate(a, kBytes);
    void *b = polyPoolAllocate(kBytes);
    EXPECT_EQ(a, b) << "same-size realloc must hit the free list";
    polyPoolDeallocate(b, kBytes);

    const PolyPoolStats s = polyPoolStats();
    EXPECT_EQ(s.allocs, 2u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.frees, 2u);
}

TEST_F(PolyPoolTest, LiveBlocksAreNeverAliased)
{
    // Allocate many same-size blocks while all stay live: every
    // pointer must be distinct, and bytes written through one must
    // survive churn on the others.
    constexpr int kBlocks = 32;
    std::vector<unsigned char *> blocks;
    for (int i = 0; i < kBlocks; ++i) {
        auto *p = static_cast<unsigned char *>(polyPoolAllocate(kBytes));
        std::memset(p, i + 1, kBytes);
        blocks.push_back(p);
    }
    for (int i = 0; i < kBlocks; ++i)
        for (int j = i + 1; j < kBlocks; ++j)
            ASSERT_NE(blocks[i], blocks[j]);
    // Churn: recycle scratch blocks between integrity checks.
    for (int round = 0; round < 8; ++round) {
        void *scratch = polyPoolAllocate(kBytes);
        std::memset(scratch, 0xEE, kBytes);
        polyPoolDeallocate(scratch, kBytes);
    }
    for (int i = 0; i < kBlocks; ++i) {
        for (std::size_t b = 0; b < kBytes; b += kBytes / 7)
            ASSERT_EQ(blocks[i][b], static_cast<unsigned char>(i + 1));
        polyPoolDeallocate(blocks[i], kBytes);
    }
}

TEST_F(PolyPoolTest, TrimReleasesEverythingAndNothingLeaks)
{
    const PolyPoolStats before = polyPoolStats();
    std::vector<void *> blocks;
    for (int i = 0; i < 16; ++i)
        blocks.push_back(polyPoolAllocate(kBytes));
    EXPECT_EQ(polyPoolStats().liveBytes, before.liveBytes + 16 * kBytes);
    for (void *p : blocks)
        polyPoolDeallocate(p, kBytes);

    PolyPoolStats s = polyPoolStats();
    EXPECT_EQ(s.liveBytes, before.liveBytes) << "every byte returned";
    EXPECT_GT(s.cachedBytes, before.cachedBytes) << "frees parked";

    polyPoolTrim();
    s = polyPoolStats();
    EXPECT_EQ(s.cachedBytes, 0u) << "trim releases all parked blocks";
    EXPECT_EQ(s.liveBytes, before.liveBytes);
}

TEST_F(PolyPoolTest, DisabledPoolPassesThrough)
{
    polyPoolSetEnabled(false);
    polyPoolResetStats();
    void *a = polyPoolAllocate(kBytes);
    polyPoolDeallocate(a, kBytes);
    const PolyPoolStats s = polyPoolStats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.parked, 0u);
    EXPECT_EQ(s.cachedBytes, 0u);

    // A block parked while enabled must still free cleanly when the
    // pool is disabled before the next allocation (blocks always come
    // from operator new, so toggling mid-run is safe).
    polyPoolSetEnabled(true);
    void *b = polyPoolAllocate(kBytes);
    polyPoolDeallocate(b, kBytes);
    polyPoolSetEnabled(false);
    void *c = polyPoolAllocate(kBytes);
    polyPoolDeallocate(c, kBytes);
    polyPoolSetEnabled(true);
    polyPoolTrim();
    EXPECT_EQ(polyPoolStats().cachedBytes, 0u);
}

TEST_F(PolyPoolTest, BlockFreedOnAnotherThreadIsReused)
{
    // The lists are process-wide: a slab a worker allocates and frees
    // must satisfy the next same-size allocation on this thread (a
    // fanned-out bootstrap frees its workers' slabs on the caller).
    void *p = nullptr;
    std::thread t([&] {
        p = polyPoolAllocate(kBytes);
        polyPoolDeallocate(p, kBytes);
    });
    t.join();
    void *q = polyPoolAllocate(kBytes);
    EXPECT_EQ(p, q) << "block parked by the worker must be reused";
    polyPoolDeallocate(q, kBytes);

    const PolyPoolStats s = polyPoolStats();
    EXPECT_EQ(s.allocs, 2u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.cachedBytes, kBytes);
}

TEST_F(PolyPoolTest, MissReturnsParkedBytes)
{
    // Two sizes, one thread, a fixed sequence: live + parked bytes
    // must never exceed the peak of the live set, because every miss
    // first hands back as many parked bytes as it asks for.
    constexpr std::size_t kSmall = 3 * kBytes / 4;
    constexpr std::size_t kLarge = 2 * kBytes;
    std::vector<std::pair<void *, std::size_t>> live;
    std::size_t live_bytes = 0, peak = 0;
    const auto check = [&](const char *when) {
        EXPECT_LE(polyPoolStats().cachedBytes + live_bytes, peak) << when;
    };
    const auto alloc = [&](std::size_t bytes) {
        live.emplace_back(polyPoolAllocate(bytes), bytes);
        live_bytes += bytes;
        peak = std::max(peak, live_bytes);
        check("after allocate");
    };
    const auto free_at = [&](std::size_t i) {
        polyPoolDeallocate(live[i].first, live[i].second);
        live_bytes -= live[i].second;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        check("after free");
    };

    // Park 8 small blocks, then switch the whole live set to the
    // large size: each large miss must evict small blocks.
    for (int i = 0; i < 8; ++i)
        alloc(kSmall);
    while (!live.empty())
        free_at(live.size() - 1);
    EXPECT_EQ(polyPoolStats().cachedBytes, 8 * kSmall);
    for (int i = 0; i < 3; ++i)
        alloc(kLarge);
    EXPECT_EQ(polyPoolStats().hits, 0u) << "no large block was parked";
    EXPECT_LE(polyPoolStats().cachedBytes, 8 * kSmall - 3 * kLarge);

    // A fixed pseudo-random interleaving of both sizes.
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int step = 0; step < 2000; ++step) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const unsigned r = static_cast<unsigned>(x >> 33);
        if (live.size() < 4 || (r % 3 != 0 && live.size() < 24))
            alloc(r & 1 ? kLarge : kSmall);
        else
            free_at(r % live.size());
    }
    EXPECT_GT(polyPoolStats().hits, 0u) << "the pool still recycles";
    while (!live.empty())
        free_at(live.size() - 1);
}

TEST_F(PolyPoolTest, RnsPolyRoundTripsThroughThePool)
{
    // End-to-end: RnsPoly's allocator must draw from the pool, and a
    // destroyed polynomial's slab must be recycled into the next
    // same-shape polynomial.
    const std::size_t n = 128;
    RnsChain chain(n, generateNttPrimes(40, n, 4));
    const std::vector<unsigned> idx = {0, 1, 2, 3};
    polyPoolResetStats();
    {
        RnsPoly p(chain, idx, false);
        (void)p;
    }
    const PolyPoolStats mid = polyPoolStats();
    EXPECT_GE(mid.parked, 1u) << "slab parked on destruction";
    {
        RnsPoly q(chain, idx, false);
        (void)q;
        EXPECT_GE(polyPoolStats().hits, 1u) << "slab reused";
    }
}

} // namespace
} // namespace cl
