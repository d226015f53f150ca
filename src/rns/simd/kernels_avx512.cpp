/**
 * AVX-512F backend: 8 lanes of 64-bit residues per vector.
 *
 * Same narrow-modulus algorithms as the AVX2 backend (32x32->64
 * `vpmuludq` products, split Shoup/Barrett quotients — see the
 * derivations in kernels_avx2.cpp), with two simplifications the
 * wider ISA affords: native unsigned 64-bit compares into mask
 * registers (no signed-compare trick) and masked subtracts for the
 * conditional corrections. Requires only AVX-512F at runtime.
 */

#include "rns/simd/kernels.h"
#include "rns/simd/ref_impl.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace cl {
namespace simd {
namespace {

inline __m512i
set1(u64 v)
{
    return _mm512_set1_epi64(static_cast<long long>(v));
}

inline __m512i
mul32(__m512i a, __m512i b)
{
    return _mm512_mul_epu32(a, b);
}

/** r - q if r >= q (unsigned). */
inline __m512i
csub(__m512i r, __m512i q)
{
    const __mmask8 m = _mm512_cmpge_epu64_mask(r, q);
    return _mm512_mask_sub_epi64(r, m, r, q);
}

struct Split32
{
    __m512i hi, lo;

    explicit Split32(u64 v)
        : hi(set1(v >> 32)), lo(set1(v & 0xffffffffu))
    {
    }
};

/** floor(x * w64 / 2^64) for x < 2^32 (w64 given split). */
inline __m512i
mulHi64Narrow(__m512i x, const Split32 &w64)
{
    const __m512i t = _mm512_add_epi64(
        mul32(x, w64.hi), _mm512_srli_epi64(mul32(x, w64.lo), 32));
    return _mm512_srli_epi64(t, 32);
}

/** ShoupMul::mulLazy for x < 2^32, w < q < 2^30; result in [0, 2q). */
inline __m512i
shoupMulLazy(__m512i x, __m512i wv, const Split32 &wPrec, __m512i qv)
{
    const __m512i hi = mulHi64Narrow(x, wPrec);
    return _mm512_sub_epi64(mul32(x, wv), mul32(hi, qv));
}

/** Exact floor(v * M / 2^64) for v < 2^62, M < 2^37 (split). */
inline __m512i
barrettHi(__m512i v, const Split32 &m)
{
    const __m512i vHi = _mm512_srli_epi64(v, 32);
    const __m512i t = _mm512_add_epi64(
        _mm512_add_epi64(mul32(vHi, m.lo), mul32(v, m.hi)),
        _mm512_srli_epi64(mul32(v, m.lo), 32));
    return _mm512_add_epi64(mul32(vHi, m.hi), _mm512_srli_epi64(t, 32));
}

/** Canonical v mod q for v < min(2^62, q * 2^32). */
inline __m512i
barrettReduce(__m512i v, const Split32 &m, __m512i qv)
{
    const __m512i hi = barrettHi(v, m);
    __m512i r = _mm512_sub_epi64(v, mul32(hi, qv));
    r = csub(r, qv);
    return csub(r, qv);
}

inline bool
narrow(u64 q)
{
    return q < kSimdNarrowModulusBound;
}

// --- Kernels -----------------------------------------------------------

void
addModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const __m512i qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i y = _mm512_loadu_si512(b + i);
        _mm512_storeu_si512(a + i, csub(_mm512_add_epi64(x, y), qv));
    }
    ref::addModVec(a + i, b + i, n - i, q);
}

void
subModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    const __m512i qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i y = _mm512_loadu_si512(b + i);
        const __mmask8 borrow = _mm512_cmplt_epu64_mask(x, y);
        __m512i r = _mm512_sub_epi64(x, y);
        r = _mm512_mask_add_epi64(r, borrow, r, qv);
        _mm512_storeu_si512(a + i, r);
    }
    ref::subModVec(a + i, b + i, n - i, q);
}

void
mulModVec(u64 *a, const u64 *b, std::size_t n, u64 q)
{
    if (!narrow(q))
        return ref::mulModVec(a, b, n, q);
    const Split32 m(static_cast<u64>((u128{1} << 64) / q));
    const __m512i qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i y = _mm512_loadu_si512(b + i);
        _mm512_storeu_si512(a + i,
                            barrettReduce(mul32(x, y), m, qv));
    }
    ref::mulModVec(a + i, b + i, n - i, q);
}

void
mulAddModVec(u64 *acc, const u64 *a, const u64 *b, std::size_t n, u64 q)
{
    if (!narrow(q))
        return ref::mulAddModVec(acc, a, b, n, q);
    const Split32 m(static_cast<u64>((u128{1} << 64) / q));
    const __m512i qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i y = _mm512_loadu_si512(b + i);
        const __m512i s = _mm512_loadu_si512(acc + i);
        const __m512i r = barrettReduce(mul32(x, y), m, qv);
        _mm512_storeu_si512(acc + i,
                            csub(_mm512_add_epi64(s, r), qv));
    }
    ref::mulAddModVec(acc + i, a + i, b + i, n - i, q);
}

void
negateVec(u64 *a, std::size_t n, u64 q)
{
    const __m512i qv = set1(q), zero = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __mmask8 nz = _mm512_cmpneq_epu64_mask(x, zero);
        _mm512_storeu_si512(a + i,
                            _mm512_maskz_sub_epi64(nz, qv, x));
    }
    ref::negateVec(a + i, n - i, q);
}

void
mulModShoupVec(u64 *y, const u64 *x, std::size_t n, u64 w, u64 wPrec,
               u64 q)
{
    if (!narrow(q))
        return ref::mulModShoupVec(y, x, n, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m512i wv = set1(w), qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i xv = _mm512_loadu_si512(x + i);
        _mm512_storeu_si512(y + i,
                            csub(shoupMulLazy(xv, wv, wp, qv), qv));
    }
    ref::mulModShoupVec(y + i, x + i, n - i, w, wPrec, q);
}

void
subMulShoupVec(u64 *dst, const u64 *hi, const u64 *lo, std::size_t n,
               u64 w, u64 wPrec, u64 q)
{
    if (!narrow(q))
        return ref::subMulShoupVec(dst, hi, lo, n, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m512i wv = set1(w), qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i h = _mm512_loadu_si512(hi + i);
        const __m512i l = _mm512_loadu_si512(lo + i);
        const __mmask8 borrow = _mm512_cmplt_epu64_mask(h, l);
        __m512i d = _mm512_sub_epi64(h, l);
        d = _mm512_mask_add_epi64(d, borrow, d, qv);
        _mm512_storeu_si512(dst + i,
                            csub(shoupMulLazy(d, wv, wp, qv), qv));
    }
    ref::subMulShoupVec(dst + i, hi + i, lo + i, n - i, w, wPrec, q);
}

void
baseconvMacVec(u64 *y, const u64 *const *xs, const u64 *cs,
               std::size_t ls, std::size_t n, u64 q, u64 x_bound)
{
    if (!narrow(q) || x_bound > (u64{1} << 32) || n < 8)
        return ref::baseconvMacVec(y, xs, cs, ls, n, q, x_bound);

    const u64 M = static_cast<u64>((u128{1} << 64) / q);
    const Split32 m(M);
    const __m512i qv = set1(q);
    const std::size_t chunk =
        static_cast<std::size_t>((u64{1} << 32) / q);

    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        __m512i acc = _mm512_setzero_si512();
        std::size_t since_flush = 0;
        for (std::size_t i = 0; i < ls; ++i) {
            const __m512i x = _mm512_loadu_si512(xs[i] + k);
            const __m512i hi = mulHi64Narrow(x, m);
            __m512i t = _mm512_sub_epi64(x, mul32(hi, qv));
            t = csub(t, qv); // [0, q)
            acc = _mm512_add_epi64(acc, mul32(t, set1(cs[i])));
            if (++since_flush >= chunk && i + 1 < ls) {
                acc = barrettReduce(acc, m, qv);
                since_flush = 0;
            }
        }
        _mm512_storeu_si512(y + k, barrettReduce(acc, m, qv));
    }
    for (; k < n; ++k) {
        u128 acc = 0;
        for (std::size_t i = 0; i < ls; ++i)
            acc += (u128)(xs[i][k] % q) * cs[i];
        y[k] = static_cast<u64>(acc % q);
    }
}

void
gatherVec(u64 *dst, const u64 *src, const std::uint32_t *idx,
          std::size_t n)
{
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i iv =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(idx + j));
        const __m512i g = _mm512_i32gather_epi64(iv, src, 8);
        _mm512_storeu_si512(dst + j, g);
    }
    ref::gatherVec(dst + j, src, idx + j, n - j);
}

void
nttFwdButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    if (!narrow(q))
        return ref::nttFwdButterflyVec(x, y, t, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m512i wv = set1(w), qv = set1(q), two_q = set1(2 * q);
    std::size_t j = 0;
    for (; j + 8 <= t; j += 8) {
        __m512i xv = _mm512_loadu_si512(x + j);
        const __m512i yv = _mm512_loadu_si512(y + j);
        xv = csub(xv, two_q);                           // [0, 2q)
        const __m512i v = shoupMulLazy(yv, wv, wp, qv); // [0, 2q)
        _mm512_storeu_si512(x + j, _mm512_add_epi64(xv, v));
        _mm512_storeu_si512(
            y + j, _mm512_sub_epi64(_mm512_add_epi64(xv, two_q), v));
    }
    ref::nttFwdButterflyVec(x + j, y + j, t - j, w, wPrec, q);
}

void
nttInvButterflyVec(u64 *x, u64 *y, std::size_t t, u64 w, u64 wPrec,
                   u64 q)
{
    if (!narrow(q))
        return ref::nttInvButterflyVec(x, y, t, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m512i wv = set1(w), qv = set1(q), two_q = set1(2 * q);
    std::size_t j = 0;
    for (; j + 8 <= t; j += 8) {
        const __m512i xv = _mm512_loadu_si512(x + j);
        const __m512i yv = _mm512_loadu_si512(y + j);
        const __m512i s = csub(_mm512_add_epi64(xv, yv), two_q);
        const __m512i u =
            _mm512_sub_epi64(_mm512_add_epi64(xv, two_q), yv);
        _mm512_storeu_si512(x + j, s);
        _mm512_storeu_si512(y + j, shoupMulLazy(u, wv, wp, qv));
    }
    ref::nttInvButterflyVec(x + j, y + j, t - j, w, wPrec, q);
}

void
nttCorrectVec(u64 *a, std::size_t n, u64 q)
{
    if (!narrow(q))
        return ref::nttCorrectVec(a, n, q);
    const __m512i qv = set1(q), two_q = set1(2 * q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i x = _mm512_loadu_si512(a + i);
        x = csub(x, two_q);
        x = csub(x, qv);
        _mm512_storeu_si512(a + i, x);
    }
    ref::nttCorrectVec(a + i, n - i, q);
}

void
nttScaleInvVec(u64 *a, std::size_t n, u64 w, u64 wPrec, u64 q)
{
    if (!narrow(q))
        return ref::nttScaleInvVec(a, n, w, wPrec, q);
    const Split32 wp(wPrec);
    const __m512i wv = set1(w), qv = set1(q);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        _mm512_storeu_si512(a + i,
                            csub(shoupMulLazy(x, wv, wp, qv), qv));
    }
    ref::nttScaleInvVec(a + i, n - i, w, wPrec, q);
}

} // namespace

const KernelTable *
avx512Table()
{
    static const KernelTable table = {
        SimdBackend::Avx512,
        "avx512",
        &addModVec,
        &subModVec,
        &mulModVec,
        &mulAddModVec,
        &negateVec,
        &mulModShoupVec,
        &subMulShoupVec,
        &baseconvMacVec,
        &gatherVec,
        &nttFwdButterflyVec,
        &nttInvButterflyVec,
        &nttCorrectVec,
        &nttScaleInvVec,
    };
    return &table;
}

} // namespace simd
} // namespace cl

#else // !__AVX512F__

namespace cl {
namespace simd {

const KernelTable *
avx512Table()
{
    return nullptr;
}

} // namespace simd
} // namespace cl

#endif
