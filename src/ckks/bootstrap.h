/**
 * @file
 * Functional CKKS bootstrapping — the procedure that makes FHE
 * computation unbounded (Sec 2.3, Fig 2), and the computation the
 * paper's deep benchmarks revolve around.
 *
 * Pipeline (the packed algorithm of [11, 14, 53] that Sec 6 tunes):
 *
 *  1. ModRaise: lift the exhausted ciphertext to the top of the
 *     modulus chain. Decryption becomes m + q0*k for a small integer
 *     polynomial k (bounded by the secret's Hamming weight).
 *  2. CoeffToSlot: homomorphically apply the inverse canonical
 *     embedding so the coefficients of m + q0*k appear in slots
 *     (one BSGS linear transform; its matrix is derived numerically
 *     from the encoder's own special FFT, so it matches the slot
 *     ordering by construction).
 *  3. EvalMod: remove the q0*k term by evaluating
 *     (1/2pi) sin(2pi x / q0) via a Chebyshev polynomial, using a
 *     depth-logarithmic Paterson-Stockmeyer evaluation in the
 *     Chebyshev basis (both real/imaginary halves at once, planned
 *     in dependency waves; see ChebyshevPlan).
 *  4. SlotToCoeff: apply the forward embedding to return the cleaned
 *     coefficients to their places.
 *
 * Functional at small N (the mathematics is size-generic); the
 * accelerator-side cost of the same pipeline is modeled by
 * HomBuilder::bootstrap for the full-scale benchmarks.
 *
 * Op-level parallelism: like CraterLake spreading one bootstrap's
 * independent keyswitches over its functional units, bootstrap()
 * fans independent ops out over the global ThreadPool — the BSGS baby
 * and giant steps, and each EvalMod phase. Tower loops inside those
 * ops then run inline on their worker. Every op computes the same
 * value from the same inputs as a serial run, so bytes and op counts
 * do not depend on the worker count.
 */

#ifndef CL_CKKS_BOOTSTRAP_H
#define CL_CKKS_BOOTSTRAP_H

#include <atomic>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"

namespace cl {

/**
 * How the BSGS linear transforms execute. bootstrap() always runs
 * HoistedLazy; Naive is the reference the tests compare it to.
 *
 *  - Naive: every baby-step rotation is an independent keyswitch
 *    (digit lift + mod-up + inner product + mod-down per rotation) —
 *    the pre-hoisting behavior.
 *  - HoistedLazy: shared decompose plus lazy accumulation — the
 *    per-rotation inner products stay in the extended basis and each
 *    giant step performs a single mod-down per ciphertext component.
 *    Same message, different (smaller) rounding noise: the mod-down's
 *    base-conversion rounding is applied once per giant step instead
 *    of once per rotation, so the output is not bit-identical to
 *    Naive (see DESIGN.md §Hoisted keyswitching).
 */
enum class LinearTransformMode
{
    Naive,
    HoistedLazy,
};

struct BootstrapParams
{
    /** Range bound K: EvalMod handles |m + q0 k| < K*q0. Requires a
     *  sparse secret with Hamming weight <= ~2(K-1). */
    unsigned k = 16;
    /** Chebyshev degree of the sine approximation. */
    unsigned chebDegree = 159;
    /** Baby-step count for the polynomial evaluation (power of 2). */
    unsigned babySteps = 16;
    /**
     * Baby dimension n1 of the transform BSGS split (power of 2;
     * 0 = auto). Hoisted baby rotations cost only an inner product —
     * no digit lift and no mod-down — while every giant step still
     * pays a full keyswitch plus the deferred mod-downs, so
     * HoistedLazy wants n1 well above the square split sqrt(n) that
     * minimizes plain rotation count. Auto picks
     * min(slots, 4*sqrt(slots)).
     */
    unsigned ltBabySteps = 0;
};

/** Chebyshev coefficients of EvalMod's (1/2pi) sin(2pi K u) on
 *  [-1, 1], degree params.chebDegree. */
std::vector<double> evalModCoefficients(const BootstrapParams &params);

/**
 * Chebyshev-basis division: rewrite p = sum b_j T_j as
 * p = q(u) * T_g(u) + r(u) using T_{a+g} = 2 T_a T_g - T_{|a-g|}.
 * Returns (q, r) coefficient vectors (also in the T basis).
 */
std::pair<std::vector<double>, std::vector<double>>
chebDivide(std::vector<double> b, unsigned g);

/**
 * Evaluation plan for p(u) = sum_j c_j T_j(u) (Paterson-Stockmeyer
 * in the Chebyshev basis). p is divided by T_g for the largest
 * power-of-two g >= babySteps with 2g <= deg, recursively, until
 * every block has degree < babySteps. The plan lays that division
 * tree out as three phases whose items are independent:
 *
 *  (a) waves: the basis T_j(u), j >= 2, built with
 *      T_j = 2 T_ceil(j/2) T_floor(j/2) - T_(j mod 2 ? 1 : 0); wave w
 *      holds the degrees of depth ceil(log2 j) = w + 1, which read
 *      only T_1 = u and earlier waves. Exactly the degrees the leaf
 *      blocks (terms with |c| > 1e-13) and the divisions read, closed
 *      under j -> ceil(j/2), floor(j/2).
 *  (b) leaves: every block of degree < babySteps, combined directly.
 *  (c) heights: inner node p = q T_g + r, grouped by height above
 *      the leaves, so each height reads only finished children.
 */
struct ChebyshevPlan
{
    struct Node
    {
        std::vector<double> coeffs; ///< Leaf block (empty when inner).
        unsigned giant = 0;         ///< Inner: divisor degree g; 0 = leaf.
        unsigned quot = 0;          ///< Inner: node index of q.
        unsigned rem = 0;           ///< Inner: node index of r.
    };

    std::vector<Node> nodes;                    ///< nodes[0] is the root.
    std::vector<std::vector<unsigned>> waves;   ///< Phase (a) degrees.
    std::vector<unsigned> leaves;               ///< Phase (b) nodes.
    std::vector<std::vector<unsigned>> heights; ///< Phase (c) nodes.
    unsigned maxDegree = 1;                     ///< Largest T_j built.
};

/** Plan the evaluation of sum_j coeffs[j] T_j (see ChebyshevPlan). */
ChebyshevPlan planChebyshev(const std::vector<double> &coeffs,
                            unsigned babySteps);

class Bootstrapper
{
  public:
    /**
     * Precomputes the CoeffToSlot/SlotToCoeff matrices, the Chebyshev
     * coefficients, and all rotation/relinearization keys.
     */
    Bootstrapper(const CkksContext &ctx, const CkksEncoder &encoder,
                 KeyGenerator &keygen, BootstrapParams params = {});

    /**
     * Refresh an exhausted ciphertext: input at level >= 1, output at
     * a high level with the same (approximate) message. Both
     * transforms run HoistedLazy over the cached diagonals.
     */
    Ciphertext bootstrap(const Ciphertext &ct) const;

    /** Levels the pipeline consumes from the top of the chain. */
    unsigned depthUsed() const { return depthUsed_; }

    /** The two BSGS linear transforms, exposed with an explicit
     *  execution mode for equivalence tests and benchmarks. */
    Ciphertext applyCoeffToSlot(const Ciphertext &ct,
                                LinearTransformMode mode) const;
    Ciphertext applySlotToCoeff(const Ciphertext &ct,
                                LinearTransformMode mode) const;

  private:
    using Matrix = std::vector<std::vector<Complex>>; // row-major n x n

    /**
     * Encoded diagonals of one transform matrix at one level, built
     * lazily on first use and reused across bootstrap() calls (the
     * matrices and the levels they are applied at never change).
     * ptData: NTT form over the data basis (multiplies ciphertexts);
     * ptExt: NTT form over Q_level ∪ P (multiplies lazy ext-basis
     * accumulators; only built for HoistedLazy).
     */
    struct DiagCache
    {
        std::vector<char> nonzero;
        std::vector<RnsPoly> ptData;
        std::vector<RnsPoly> ptExt;
        bool hasExt = false;
    };

    /** Homomorphic slot-linear transform by dense matrix M (BSGS).
     *  @p which identifies M for the diagonal cache (0 = CoeffToSlot,
     *  1 = SlotToCoeff). */
    Ciphertext linearTransform(const Ciphertext &ct, const Matrix &m,
                               int which,
                               LinearTransformMode mode) const;

    /** Diagonal plaintexts of matrix @p which at @p level (cached). */
    const DiagCache &diagonals(const Matrix &m, int which,
                               unsigned level, bool need_ext) const;

    /** Fill dc.nonzero and dc.ptData (the data-basis diagonals). */
    void addDataDiagonals(DiagCache &dc, const Matrix &m,
                          unsigned level) const;

    /** Fill dc.ptExt (the ext-basis diagonals) and set dc.hasExt,
     *  leaving dc.nonzero and dc.ptData untouched. */
    void addExtDiagonals(DiagCache &dc, const Matrix &m,
                         unsigned level) const;

    /** Rotation diagonal d of M, pre-rotated for giant step g. */
    std::vector<Complex> rotatedDiagonal(const Matrix &m,
                                         std::size_t d) const;

    /** Evaluate the EvalMod polynomial at every input (slots in
     *  [-1,1]); returns sum_j coeffs[j] T_j(in[i]) for each i. */
    std::vector<Ciphertext>
    evalChebyshev(const std::vector<Ciphertext> &in) const;

    /** Align a ciphertext to (level, scale), spending spare levels. */
    Ciphertext alignTo(const Ciphertext &ct, unsigned level,
                       double scale) const;

    /** Bring two ciphertexts to a common (level, scale) pair,
     *  spending a level of whichever operand can afford it. */
    void alignPair(Ciphertext &a, Ciphertext &b) const;

    Ciphertext mulConst(const Ciphertext &ct, Complex c) const;

    const CkksContext &ctx_;
    const CkksEncoder &encoder_;
    Evaluator eval_;
    BootstrapParams params_;

    Matrix coeffToSlot_; // inverse special FFT
    Matrix slotToCoeff_; // forward special FFT
    ChebyshevPlan chebPlan_;
    SwitchKey relin_;
    GaloisKeys galois_;
    unsigned ltN1_ = 0; // resolved transform baby dimension
    // bootstrap() is const and the task-graph runtime calls it from
    // many workers at once: the depth record is atomic (every call
    // stores the same value) and the lazily built diagonal cache is
    // mutex-guarded (map nodes are stable and an entry's nonzero and
    // ptData never change once built, so references handed out under
    // the lock stay valid after it is released).
    mutable std::atomic<unsigned> depthUsed_{0};
    mutable std::mutex diagMutex_;
    mutable std::map<std::pair<int, unsigned>, DiagCache> diagCache_;
};

} // namespace cl

#endif // CL_CKKS_BOOTSTRAP_H
