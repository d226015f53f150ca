#include "ntt.h"

#include "rns/primes.h"
#include "rns/simd/kernels.h"
#include "util/instrument.h"

namespace cl {

namespace {

/** Butterfly blocks shorter than this stay on the inline scalar loop:
 *  a function-pointer call per block only pays off once the block
 *  amortizes it over a vector's worth of lanes. The last log2(8)
 *  stages of an N-point transform run inline; they hold a small,
 *  fixed fraction of the work. */
constexpr std::size_t kNttVecMinBlock = 8;

} // namespace

NttTables::NttTables(std::size_t n, u64 q) : n_(n), q_(q)
{
    CL_ASSERT(isPowerOfTwo(n), "N must be power of two, got ", n);
    CL_ASSERT((q - 1) % (2 * n) == 0, "q=", q, " not NTT-friendly for N=",
              n);
    // Lazy (Harvey) butterflies hold operands in [0, 4q), so 4q must
    // fit a 64-bit word with headroom for one addition.
    CL_ASSERT(q < (u64{1} << 62), "modulus ", q, " too wide for lazy NTT");
    logN_ = log2Exact(n);
    psi_ = findPrimitiveRoot(q, 2 * n);
    const u64 psi_inv = invMod(psi_, q);

    fwdTwiddles_.resize(n);
    invTwiddles_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const u64 e = bitReverse(static_cast<std::uint32_t>(i), logN_);
        fwdTwiddles_[i] = ShoupMul(powMod(psi_, e, q), q);
        invTwiddles_[i] = ShoupMul(powMod(psi_inv, e, q), q);
    }
    nInv_ = ShoupMul(invMod(static_cast<u64>(n), q), q);
}

void
NttTables::forward(u64 *a) const
{
    countNtts(1);
    // logN butterfly stages plus the correction pass.
    countMemPass(logN_ + 1, u64{logN_ + 1} * 8 * n_);
    // Merged negacyclic Cooley-Tukey with Harvey lazy reduction:
    // operands ride in [0, 4q) between stages, each butterfly does one
    // conditional 2q-subtract plus one lazy Shoup multiply (no final
    // subtract), and a single correction pass at the end restores
    // [0, q). Same dataflow the hardware NTT FUs pipeline; the lazy
    // window is the software analogue of their redundant-digit
    // arithmetic. Long butterfly blocks go through the SIMD kernel
    // table; every backend computes the identical lazy formula, so
    // the intermediate representatives — not just the final values —
    // are bit-identical across backends.
    const KernelTable &K = kernels();
    const u64 q = q_;
    const u64 two_q = 2 * q;
    std::size_t t = n_;
    for (std::size_t m = 1; m < n_; m <<= 1) {
        t >>= 1;
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const ShoupMul &w = fwdTwiddles_[m + i];
            if (t >= kNttVecMinBlock) {
                K.nttFwdButterflyVec(a + j1, a + j1 + t, t, w.w, w.wPrec,
                                     q);
                continue;
            }
            for (std::size_t j = j1; j < j1 + t; ++j) {
                u64 x = a[j]; // [0, 4q)
                x -= two_q * (x >= two_q); // -> [0, 2q), branchless
                const u64 v = w.mulLazy(a[j + t], q); // [0, 2q)
                a[j] = x + v;                         // [0, 4q)
                a[j + t] = x + two_q - v;             // (0, 4q)
            }
        }
    }
    K.nttCorrectVec(a, n_, q);
}

void
NttTables::inverse(u64 *a) const
{
    countNtts(1);
    // logN butterfly stages plus the scaling pass.
    countMemPass(logN_ + 1, u64{logN_ + 1} * 8 * n_);
    // Gentleman-Sande with operands lazily held in [0, 2q); the final
    // N^-1 scaling pass performs the full reduction to [0, q).
    const KernelTable &K = kernels();
    const u64 q = q_;
    const u64 two_q = 2 * q;
    std::size_t t = 1;
    for (std::size_t m = n_; m > 1; m >>= 1) {
        const std::size_t h = m >> 1;
        std::size_t j1 = 0;
        for (std::size_t i = 0; i < h; ++i) {
            const ShoupMul &w = invTwiddles_[h + i];
            if (t >= kNttVecMinBlock) {
                K.nttInvButterflyVec(a + j1, a + j1 + t, t, w.w, w.wPrec,
                                     q);
                j1 += 2 * t;
                continue;
            }
            for (std::size_t j = j1; j < j1 + t; ++j) {
                const u64 x = a[j];     // [0, 2q)
                const u64 y = a[j + t]; // [0, 2q)
                u64 s = x + y;          // [0, 4q)
                s -= two_q * (s >= two_q);
                a[j] = s; // [0, 2q)
                a[j + t] = w.mulLazy(x + two_q - y, q); // [0, 2q)
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    K.nttScaleInvVec(a, n_, nInv_.w, nInv_.wPrec, q);
}

} // namespace cl
