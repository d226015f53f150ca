/**
 * @file
 * Negacyclic number-theoretic transform (NTT) over Z_q[x]/(x^N + 1).
 *
 * The NTT is the workhorse of RLWE-based FHE: in the NTT domain,
 * polynomial multiplication becomes element-wise multiplication
 * (Sec 2.4). We implement the standard merged-twiddle negacyclic
 * forward (Cooley-Tukey, decimation in time) and inverse
 * (Gentleman-Sande) transforms with Shoup twiddle multiplication and
 * Harvey lazy reduction (operands kept in [0, 4q) / [0, 2q) between
 * stages, one correction pass at the end), matching the dataflow
 * CraterLake's NTT FUs pipeline in hardware. Inputs must be fully
 * reduced ([0, q)); outputs are fully reduced.
 */

#ifndef CL_RNS_NTT_H
#define CL_RNS_NTT_H

#include <cstdint>
#include <vector>

#include "rns/modarith.h"

namespace cl {

/**
 * Precomputed twiddle tables for one (N, q) pair. Immutable after
 * construction; shared by all polynomials over the same modulus.
 */
class NttTables
{
  public:
    /**
     * @param n Ring degree (power of two).
     * @param q NTT-friendly prime, q ≡ 1 (mod 2n).
     */
    NttTables(std::size_t n, u64 q);

    std::size_t n() const { return n_; }
    u64 q() const { return q_; }

    /** In-place forward negacyclic NTT (coeff order in, bit-rev out
     *  internally; output is in standard "NTT slot" order). */
    void forward(u64 *a) const;

    /** In-place inverse negacyclic NTT. */
    void inverse(u64 *a) const;

    /** psi = primitive 2N-th root of unity used by this table. */
    u64 psi() const { return psi_; }

  private:
    std::size_t n_;
    unsigned logN_;
    u64 q_;
    u64 psi_;
    std::vector<ShoupMul> fwdTwiddles_; // psi^brv(i), merged CT order
    std::vector<ShoupMul> invTwiddles_; // psi^-brv(i), merged GS order
    ShoupMul nInv_;                     // N^-1 mod q for the inverse
};

/** Bit-reverse the low @p bits bits of @p x. */
inline std::uint32_t
bitReverse(std::uint32_t x, unsigned bits)
{
    std::uint32_t r = 0;
    for (unsigned i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

} // namespace cl

#endif // CL_RNS_NTT_H
