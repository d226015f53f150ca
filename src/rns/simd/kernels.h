/**
 * @file
 * Runtime-dispatched SIMD kernel backend for the RNS elementwise hot
 * paths — the software stand-in for CraterLake's 2,048 fixed-modulus
 * vector lanes (Sec 5). Every elementwise kernel the functional
 * library runs (modular add/sub/mul, Shoup multiply, the
 * changeRNSBase MAC inner product, the Harvey lazy NTT butterflies,
 * and the automorphism slot gather) goes through one function-pointer
 * table, selected once at startup:
 *
 *  - `scalar`  — the reference loops (exactly the pre-SIMD code).
 *  - `avx2`    — 4 lanes of 64-bit residues, 32x32->64 multiplies.
 *  - `avx512`  — 8 lanes, same algorithms with mask registers.
 *
 * Selection is CPUID-driven (best supported backend wins) and can be
 * overridden with `CL_SIMD=scalar|avx2|avx512`, mirroring CL_THREADS:
 * threads partition towers, lanes partition coefficients, and the two
 * compose multiplicatively.
 *
 * ## Bit-identity contract
 *
 * Every backend produces bit-identical output for every kernel:
 *
 *  - Canonical kernels (add/sub/mul/negate/Shoup/MAC) return the
 *    unique representative in [0, q); any exact algorithm agrees, so
 *    the AVX paths may use Barrett reduction where the scalar path
 *    uses a 128-bit divide.
 *  - Lazy kernels (NTT butterflies, inverse scaling) compute the
 *    *same integer formula* as `ShoupMul::mulLazy` — quotient
 *    hi = floor(x * wPrec / 2^64), remainder x*w - hi*q mod 2^64 —
 *    so the lazy representatives in [0, 2q) / [0, 4q) match exactly,
 *    not just mod q. PR 1's Harvey bounds are unchanged.
 *
 * ## Modulus-width gating
 *
 * The multiply-class vector kernels engage only for moduli below
 * 2^30 (`kSimdNarrowModulusBound`): with q < 2^30 every lazy operand
 * stays below 4q < 2^32, so one 32x32->64 `vpmuludq` forms exact
 * products and the 64-bit Shoup/Barrett quotients split into two
 * 32-bit multiplies. This covers CraterLake's 28-bit datapath primes
 * (Sec 5.5). For wide (40-62-bit CKKS) primes the vector backends
 * delegate to the scalar reference — trivially bit-identical — and
 * add/sub/negate/gather, which need no multiplies, vectorize at any
 * width. A later backend (GPU, ISPC, AVX-512 IFMA) slots into the
 * same table.
 */

#ifndef CL_RNS_SIMD_KERNELS_H
#define CL_RNS_SIMD_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "rns/modarith.h"

namespace cl {

/** Selectable kernel backends, in increasing preference order. */
enum class SimdBackend
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/** Multiply-class vector kernels engage only for q below this bound
 *  (4q must fit 32 bits so vpmuludq products are exact). */
constexpr u64 kSimdNarrowModulusBound = u64{1} << 30;

/**
 * The dispatch table. All pointers are non-null in every backend.
 * Unless noted, kernels accept unaligned pointers and any length
 * (vector bodies handle the tail with the scalar reference).
 */
struct KernelTable
{
    SimdBackend id;
    const char *name;

    /** a[i] = (a[i] + b[i]) mod q; inputs < q. */
    void (*addModVec)(u64 *a, const u64 *b, std::size_t n, u64 q);

    /** a[i] = (a[i] - b[i]) mod q; inputs < q. */
    void (*subModVec)(u64 *a, const u64 *b, std::size_t n, u64 q);

    /** a[i] = a[i] * b[i] mod q (canonical); inputs < q, q < 2^62. */
    void (*mulModVec)(u64 *a, const u64 *b, std::size_t n, u64 q);

    /** acc[i] = (acc[i] + a[i] * b[i]) mod q (canonical); the fused
     *  multiply-accumulate of the keyswitch hint inner product. All
     *  inputs < q; acc must not alias a or b. Equals mulModVec into a
     *  temporary followed by addModVec, fused into one pass. */
    void (*mulAddModVec)(u64 *acc, const u64 *a, const u64 *b,
                         std::size_t n, u64 q);

    /** a[i] = q - a[i] (0 stays 0); inputs < q. */
    void (*negateVec)(u64 *a, std::size_t n, u64 q);

    /** y[i] = x[i] * w mod q, Shoup precomputed quotient wPrec =
     *  floor(w << 64 / q); inputs < q. y may alias x. */
    void (*mulModShoupVec)(u64 *y, const u64 *x, std::size_t n, u64 w,
                           u64 wPrec, u64 q);

    /** dst[i] = (hi[i] - lo[i]) * w mod q (fused keyswitch mod-down);
     *  hi, lo < q; Shoup pair (w, wPrec). dst may alias hi or lo. */
    void (*subMulShoupVec)(u64 *dst, const u64 *hi, const u64 *lo,
                           std::size_t n, u64 w, u64 wPrec, u64 q);

    /**
     * changeRNSBase inner product for one destination tower:
     * y[k] = sum_i (xs[i][k] mod q) * cs[i]  mod q, with cs[i] < q.
     * @p x_bound is an exclusive upper bound on every xs value (the
     * largest source modulus); the vector path engages when both q
     * and x_bound are narrow.
     */
    void (*baseconvMacVec)(u64 *y, const u64 *const *xs, const u64 *cs,
                           std::size_t ls, std::size_t n, u64 q,
                           u64 x_bound);

    /** dst[j] = src[idx[j]] (automorphism slot gather). dst must not
     *  alias src. */
    void (*gatherVec)(u64 *dst, const u64 *src, const std::uint32_t *idx,
                      std::size_t n);

    /**
     * Harvey lazy Cooley-Tukey butterfly block (forward NTT):
     * for j in [0, t):  xx = x[j] - 2q*(x[j] >= 2q)   in [0, 2q)
     *                   v  = mulLazy(y[j], w)         in [0, 2q)
     *                   x[j] = xx + v;  y[j] = xx + 2q - v.
     * Inputs in [0, 4q); q < 2^62.
     */
    void (*nttFwdButterflyVec)(u64 *x, u64 *y, std::size_t t, u64 w,
                               u64 wPrec, u64 q);

    /**
     * Lazy Gentleman-Sande butterfly block (inverse NTT):
     * for j in [0, t):  s = x[j] + y[j] - 2q*(.. >= 2q)  in [0, 2q)
     *                   y[j] = mulLazy(x[j] + 2q - y[j], w)
     *                   x[j] = s.
     * Inputs in [0, 2q); q < 2^62.
     */
    void (*nttInvButterflyVec)(u64 *x, u64 *y, std::size_t t, u64 w,
                               u64 wPrec, u64 q);

    /** Final forward-NTT correction pass: a[i] in [0, 4q) -> [0, q). */
    void (*nttCorrectVec)(u64 *a, std::size_t n, u64 q);

    /** Final inverse-NTT scaling: a[i] = mulLazy(a[i], w) folded to
     *  [0, q); inputs in [0, 2q); (w, wPrec) is the Shoup pair for
     *  N^-1 mod q. */
    void (*nttScaleInvVec)(u64 *a, std::size_t n, u64 w, u64 wPrec,
                           u64 q);
};

/** The active kernel table; resolved once on first use from
 *  simdBackendFromEnv() unless setSimdBackend ran first. */
const KernelTable &kernels();

/** Backend of the active table. */
SimdBackend activeSimdBackend();

/** The backend CL_SIMD asks for (scalar, with a warning, when it is
 *  unavailable), else the best one this build and CPU support. Reads
 *  the environment on every call. */
SimdBackend simdBackendFromEnv();

/** Table for a specific backend, or nullptr when it is not compiled
 *  in or not supported by this CPU (tests/benchmarks). */
const KernelTable *kernelTableFor(SimdBackend backend);

/** Switch the active backend; returns false (and changes nothing)
 *  when the backend is unavailable. Must not race with in-flight
 *  kernels (tests/benchmarks sweeping backends). */
bool setSimdBackend(SimdBackend backend);

/** Human-readable backend name ("scalar", "avx2", "avx512"). */
const char *simdBackendName(SimdBackend backend);

} // namespace cl

#endif // CL_RNS_SIMD_KERNELS_H
