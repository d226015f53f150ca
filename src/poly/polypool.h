/**
 * @file
 * Pooled allocation for RnsPoly coefficient slabs.
 *
 * The homomorphic hot path allocates and frees polynomial buffers at a
 * furious rate — every Evaluator op materializes result polynomials,
 * every keyswitch builds digit/accumulator scratch, every BSGS
 * transform encodes diagonal temporaries — and the set of sizes is
 * small: a few dozen tower-count × N shapes per context. This pool
 * keeps one process-wide set of free lists keyed by exact byte size,
 * guarded by one mutex: a freed slab parks on its size's list and the
 * next same-shape allocation on *any* thread reuses it. That matters
 * once one bootstrap fans its ops out over the thread pool — a slab a
 * worker allocates is often freed by the caller, and the caller's
 * next allocation of that shape must find it.
 *
 * Bounded by the live set: a miss (no parked slab of the asked size)
 * first hands at least as many parked bytes back to the heap, taken
 * from the sizes with the most parked bytes, before it calls
 * `operator new`. Live + parked bytes therefore never exceed the peak
 * live set, so the pool cannot hoard the high-water mark of every
 * shape it has ever seen. Blocks always come from (and eventually
 * return to) `operator new`/`operator delete`, so enabling or
 * disabling the pool mid-run is safe — it only changes whether a free
 * parks the block or releases it.
 *
 * Determinism: the pool changes *where* buffers live, never what is
 * computed — ciphertext bytes are identical with the pool on or off.
 *
 * Knobs:
 *  - `CL_POOL=0|off` disables pooling (every call passes through to
 *    the system allocator); default on, except under AddressSanitizer
 *    where pooling would mask use-after-free of recycled slabs.
 *  - `CL_POOL_MB=<n>` caps the bytes parked process-wide (default
 *    256); frees beyond the cap release to the system allocator.
 *
 * Static destruction releases every parked block, so the pool holds no
 * memory at exit (leak-checker clean); frees that arrive later pass
 * straight through.
 */

#ifndef CL_POLY_POLYPOOL_H
#define CL_POLY_POLYPOOL_H

#include <cstddef>
#include <cstdint>

namespace cl {

/** Process-wide pool counters (relaxed atomics; exact once the
 *  threads touching the pool have joined). */
struct PolyPoolStats
{
    std::uint64_t allocs = 0;     ///< Allocation requests seen.
    std::uint64_t hits = 0;       ///< Served from a free list.
    std::uint64_t misses = 0;     ///< Fell through to operator new.
    std::uint64_t frees = 0;      ///< Deallocation requests seen.
    std::uint64_t parked = 0;     ///< Frees that parked on a list.
    std::uint64_t liveBytes = 0;  ///< Bytes currently held by callers.
    std::uint64_t cachedBytes = 0;///< Bytes currently parked.
};

/** Whether frees park blocks for reuse (CL_POOL, see file header). */
bool polyPoolEnabled();

/** The enable flag CL_POOL asks for (see file header). Reads the
 *  environment on every call; polyPoolEnabled() resolves it once. */
bool polyPoolEnabledFromEnv();

/** Override the enable flag (tests/benchmarks comparing pooled vs
 *  pass-through allocation in one process). Safe mid-run. */
void polyPoolSetEnabled(bool on);

/** Process-wide parked-byte cap that CL_POOL_MB asks for (default
 *  256 MiB; a malformed or overflowing value warns and keeps the
 *  default). Reads the environment on every call; the pool itself
 *  resolves it once. */
std::size_t polyPoolCapBytes();

PolyPoolStats polyPoolStats();
void polyPoolResetStats();

/** Release every parked block to the system allocator. */
void polyPoolTrim();

/** Allocate @p bytes (operator-new alignment). Never returns null. */
void *polyPoolAllocate(std::size_t bytes);

/** Return a block obtained from polyPoolAllocate with the same byte
 *  count. */
void polyPoolDeallocate(void *p, std::size_t bytes) noexcept;

} // namespace cl

#endif // CL_POLY_POLYPOOL_H
