#include "bootstrap.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "util/threadpool.h"

namespace cl {

namespace {

/** Chebyshev coefficients of f on [-1, 1] by cosine projection. */
std::vector<double>
chebyshevFit(const std::function<double(double)> &f, unsigned degree)
{
    const unsigned m = 4096;
    std::vector<double> c(degree + 1, 0.0);
    for (unsigned k = 0; k < m; ++k) {
        const double theta = M_PI * (k + 0.5) / m;
        const double fv = f(std::cos(theta));
        for (unsigned j = 0; j <= degree; ++j)
            c[j] += fv * std::cos(j * theta);
    }
    for (unsigned j = 0; j <= degree; ++j)
        c[j] *= (j == 0 ? 1.0 : 2.0) / m;
    return c;
}

/** Chebyshev terms at or below this magnitude are dropped. */
constexpr double kChebTermFloor = 1e-13;

/**
 * Multiply a ciphertext's slots by a real factor while declaring an
 * explicit output scale — one integer scalar multiply, no rescale, no
 * level consumed. Used to give every term of a linear combination an
 * identical (level, scale) pair exactly.
 */
Ciphertext
mulScalarRaw(const Ciphertext &ct, double factor, double target_scale)
{
    Ciphertext r = ct;
    const double w_real = factor * target_scale / ct.scale;
    const auto w = static_cast<long long>(std::llround(w_real));
    CL_ASSERT(std::abs(w_real) < 9e18, "scalar overflow");
    for (std::size_t t = 0; t < r.c0.towers(); ++t) {
        const u64 q = r.c0.modulus(t);
        const u64 wq = reduceSigned(w, q);
        r.c0.mulScalarTower(t, wq);
        r.c1.mulScalarTower(t, wq);
    }
    r.scale = target_scale;
    return r;
}

} // namespace

std::vector<double>
evalModCoefficients(const BootstrapParams &params)
{
    const double a = 2.0 * M_PI * params.k;
    return chebyshevFit(
        [a](double u) { return std::sin(a * u) / (2.0 * M_PI); },
        params.chebDegree);
}

std::pair<std::vector<double>, std::vector<double>>
chebDivide(std::vector<double> b, unsigned g)
{
    const std::size_t d = b.size() - 1;
    CL_ASSERT(d >= g, "division degree too small");
    std::vector<double> q(d - g + 1, 0.0);
    for (std::size_t j = d; j > g; --j) {
        if (b[j] == 0.0)
            continue;
        q[j - g] += 2.0 * b[j];
        const std::size_t idx = j >= 2 * g ? j - 2 * g : 2 * g - j;
        b[idx] -= b[j];
        b[j] = 0.0;
    }
    // T_g * T_0 = T_g.
    q[0] += b[g];
    b[g] = 0.0;
    b.resize(g);
    return {std::move(q), std::move(b)};
}

ChebyshevPlan
planChebyshev(const std::vector<double> &coeffs, unsigned babySteps)
{
    ChebyshevPlan plan;
    std::set<unsigned> basis; // T_j degrees the evaluation reads
    std::vector<unsigned> height;

    // The division tree, depth first: q's subtree, then r's.
    std::function<unsigned(std::vector<double>)> divide =
        [&](std::vector<double> b) -> unsigned {
        const auto id = static_cast<unsigned>(plan.nodes.size());
        plan.nodes.emplace_back();
        height.push_back(0);
        const std::size_t deg = b.size() - 1;
        if (deg < babySteps) {
            for (std::size_t j = 1; j <= deg; ++j) {
                if (std::abs(b[j]) > kChebTermFloor)
                    basis.insert(static_cast<unsigned>(j));
            }
            plan.nodes[id].coeffs = std::move(b);
            plan.leaves.push_back(id);
            return id;
        }
        unsigned g = babySteps;
        while (2 * g <= deg)
            g *= 2;
        basis.insert(g);
        auto [q, r] = chebDivide(std::move(b), g);
        const unsigned qi = divide(std::move(q));
        const unsigned ri = divide(std::move(r));
        plan.nodes[id].giant = g;
        plan.nodes[id].quot = qi;
        plan.nodes[id].rem = ri;
        height[id] = 1 + std::max(height[qi], height[ri]);
        return id;
    };
    divide(coeffs);

    for (unsigned id = 0; id < plan.nodes.size(); ++id) {
        if (height[id] == 0)
            continue;
        if (plan.heights.size() < height[id])
            plan.heights.resize(height[id]);
        plan.heights[height[id] - 1].push_back(id);
    }

    // Close the basis under T_j's two factors; T_1 is the input.
    std::vector<unsigned> pending(basis.begin(), basis.end());
    while (!pending.empty()) {
        const unsigned j = pending.back();
        pending.pop_back();
        if (j < 2)
            continue;
        for (unsigned f : {(j + 1) / 2, j / 2}) {
            if (basis.insert(f).second)
                pending.push_back(f);
        }
    }
    for (unsigned j : basis) {
        if (j < 2)
            continue;
        // Depth ceil(log2 j): both factors sit at least one wave lower.
        unsigned depth = 0;
        while ((1u << depth) < j)
            ++depth;
        if (plan.waves.size() < depth)
            plan.waves.resize(depth);
        plan.waves[depth - 1].push_back(j);
        plan.maxDegree = std::max(plan.maxDegree, j);
    }
    return plan;
}

Bootstrapper::Bootstrapper(const CkksContext &ctx,
                           const CkksEncoder &encoder, KeyGenerator &keygen,
                           BootstrapParams params)
    : ctx_(ctx), encoder_(encoder), eval_(ctx), params_(params)
{
    const std::size_t n = ctx.slots();
    CL_ASSERT(isPowerOfTwo(params_.babySteps), "babySteps power of two");
    CL_ASSERT(ctx.params().secretHamming > 0 &&
                  ctx.params().secretHamming <= 2 * (params_.k - 2),
              "bootstrapping needs a sparse secret with ||s||_1 <= "
              "2(K-2); got h=",
              ctx.params().secretHamming, " for K=", params_.k);

    // --- CoeffToSlot / SlotToCoeff matrices, probed directly from
    //     the encoder's special FFT so slot ordering matches. ---
    coeffToSlot_.assign(n, std::vector<Complex>(n));
    slotToCoeff_.assign(n, std::vector<Complex>(n));
    for (std::size_t k = 0; k < n; ++k) {
        std::vector<Complex> e(n, Complex(0, 0));
        e[k] = Complex(1, 0);
        auto inv = e;
        encoder_.fftSpecialInv(inv); // column k of the inverse map
        auto fwd = e;
        encoder_.fftSpecial(fwd); // column k of the forward map
        for (std::size_t j = 0; j < n; ++j) {
            coeffToSlot_[j][k] = inv[j];
            slotToCoeff_[j][k] = fwd[j];
        }
    }

    // --- EvalMod polynomial: (1/2pi) sin(2 pi K u) on [-1, 1]. ---
    chebPlan_ =
        planChebyshev(evalModCoefficients(params_), params_.babySteps);

    // --- Keys: relinearization, conjugation, BSGS rotations. ---
    relin_ = keygen.genRelinKey();
    ltN1_ = params_.ltBabySteps;
    if (ltN1_ == 0) {
        // Auto split: 4x wider than the square root. Hoisted baby
        // rotations are cheap (no digit lift, no mod-down), so trading
        // giant steps for baby steps cuts the expensive full
        // keyswitches and deferred mod-downs.
        unsigned sq = 1;
        while (static_cast<std::size_t>(sq) * sq < n)
            sq <<= 1;
        ltN1_ = std::min<unsigned>(static_cast<unsigned>(n), 4 * sq);
    }
    CL_ASSERT(isPowerOfTwo(ltN1_), "ltBabySteps power of two");
    const unsigned n1 = std::min<unsigned>(ltN1_, static_cast<unsigned>(n));
    ltN1_ = n1;
    const unsigned n2 =
        static_cast<unsigned>(ceilDiv(n, n1));
    std::vector<int> steps;
    for (unsigned b = 1; b < n1; ++b)
        steps.push_back(static_cast<int>(b));
    for (unsigned g = 1; g < n2; ++g)
        steps.push_back(static_cast<int>(g * n1));
    galois_ = keygen.genRotationKeys(steps, /*conjugate=*/true);
}

Ciphertext
Bootstrapper::alignTo(const Ciphertext &ct, unsigned level,
                      double scale) const
{
    Ciphertext r = ct;
    const double rel = std::abs(r.scale - scale) / scale;
    if (rel > 1e-9) {
        CL_ASSERT(r.level() > level,
                  "no spare level for scale alignment at level ",
                  r.level());
        r = eval_.mulScalar(r, scale / r.scale);
        eval_.rescale(r);
        r.scale = scale; // absorb the 2^-50 rounding mismatch
    }
    eval_.levelDrop(r, level);
    return r;
}

void
Bootstrapper::alignPair(Ciphertext &a, Ciphertext &b) const
{
    if (std::abs(a.scale - b.scale) / b.scale > 1e-9) {
        // Correct the operand with more headroom (higher level).
        Ciphertext &c = a.level() >= b.level() ? a : b;
        Ciphertext &o = a.level() >= b.level() ? b : a;
        c = eval_.mulScalar(c, o.scale / c.scale);
        eval_.rescale(c);
        c.scale = o.scale;
    }
    const unsigned lvl = std::min(a.level(), b.level());
    eval_.levelDrop(a, lvl);
    eval_.levelDrop(b, lvl);
}

Ciphertext
Bootstrapper::mulConst(const Ciphertext &ct, Complex c) const
{
    const std::size_t n = ctx_.slots();
    const double p_scale =
        static_cast<double>(ct.c0.modulus(ct.level() - 1));
    std::vector<Complex> v(n, c);
    RnsPoly pt = encoder_.encode(v, p_scale, ct.level());
    Ciphertext r = eval_.mulPlain(ct, pt, p_scale);
    eval_.rescale(r);
    return r;
}

std::vector<Complex>
Bootstrapper::rotatedDiagonal(const Matrix &m, std::size_t d) const
{
    const std::size_t n = ctx_.slots();
    const unsigned n1 = ltN1_;
    // Diagonal d of M, pre-rotated by -g*n1 for the BSGS giant-step
    // rotation that follows (g = d / n1).
    const std::size_t rot = (d / n1) * n1 % n;
    std::vector<Complex> diag(n);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t jj = (j + n - rot) % n;
        diag[j] = m[jj][(jj + d) % n];
    }
    return diag;
}

void
Bootstrapper::addDataDiagonals(DiagCache &dc, const Matrix &m,
                               unsigned level) const
{
    const std::size_t n = ctx_.slots();
    const double p_scale =
        static_cast<double>(ctx_.chain().modulus(level - 1));
    dc.nonzero.assign(n, 0);
    dc.ptData.resize(n);
    for (std::size_t d = 0; d < n; ++d) {
        const std::vector<Complex> diag = rotatedDiagonal(m, d);
        bool nonzero = false;
        for (const Complex &c : diag)
            nonzero |= std::abs(c) > 1e-14;
        if (!nonzero)
            continue;
        dc.nonzero[d] = 1;
        RnsPoly pt = encoder_.encode(diag, p_scale, level);
        pt.toNtt();
        ctx_.ops().ntts += pt.towers();
        dc.ptData[d] = std::move(pt);
    }
}

void
Bootstrapper::addExtDiagonals(DiagCache &dc, const Matrix &m,
                              unsigned level) const
{
    const std::size_t n = ctx_.slots();
    const double p_scale =
        static_cast<double>(ctx_.chain().modulus(level - 1));
    // Extended basis Q_level ∪ P, matching Evaluator::decompose for
    // the context-default digit size every hint here is built with.
    std::vector<unsigned> ext_idx = ctx_.dataIdx(level);
    for (unsigned i : ctx_.specialIdx())
        ext_idx.push_back(i);

    dc.ptExt.resize(n);
    for (std::size_t d = 0; d < n; ++d) {
        if (!dc.nonzero[d])
            continue;
        RnsPoly pe = encoder_.encode(rotatedDiagonal(m, d), p_scale,
                                     ext_idx);
        pe.toNtt();
        ctx_.ops().ntts += pe.towers();
        dc.ptExt[d] = std::move(pe);
    }
    dc.hasExt = true;
}

const Bootstrapper::DiagCache &
Bootstrapper::diagonals(const Matrix &m, int which, unsigned level,
                        bool need_ext) const
{
    // Serializes concurrent first builds of the same (matrix, level)
    // entry; after warmup every call is a map lookup under the lock.
    // Returned references stay valid outside the lock: map nodes are
    // stable, and an entry built without ext-basis plaintexts is
    // upgraded in place for a need_ext caller — only ptExt and
    // hasExt are written, never the nonzero/ptData a concurrent
    // transform may be reading. The diagonals are encoded one after
    // another, not fanned out: a parallelFor under this lock waits
    // for the pool, while a pool item that reaches this cache waits
    // for the lock. (The tower-parallel NTTs inside each encode can
    // still fan out at N >= 2^14.)
    std::lock_guard<std::mutex> lock(diagMutex_);
    auto [it, fresh] = diagCache_.try_emplace(std::make_pair(which, level));
    if (fresh)
        addDataDiagonals(it->second, m, level);
    if (need_ext && !it->second.hasExt)
        addExtDiagonals(it->second, m, level);
    return it->second;
}

Ciphertext
Bootstrapper::linearTransform(const Ciphertext &ct, const Matrix &m,
                              int which, LinearTransformMode mode) const
{
    const std::size_t n = ctx_.slots();
    const unsigned n1 = ltN1_;
    const unsigned n2 = static_cast<unsigned>(ceilDiv(n, n1));
    const unsigned level = ct.level();
    const double p_scale =
        static_cast<double>(ct.c0.modulus(level - 1));
    const bool lazy = mode == LinearTransformMode::HoistedLazy;
    OpCounter &ops = ctx_.ops();

    const DiagCache *dc = &diagonals(m, which, level, lazy);

    // Which baby offsets carry at least one nonzero diagonal.
    std::vector<char> baby_used(n1, 0);
    for (std::size_t d = 0; d < n; ++d) {
        if (dc->nonzero[d])
            baby_used[d % n1] = 1;
    }
    bool any_rotated_baby = false;
    for (unsigned b = 1; b < n1; ++b)
        any_rotated_baby |= baby_used[b];

    // HoistedLazy: lift the digits of c1 once; every baby rotation
    // reuses them. All hints share the context-default digit size.
    KeySwitchDigits digits;
    if (lazy && any_rotated_baby) {
        const unsigned alpha_ks = galois_.keys.begin()->second.alphaKs;
        digits = eval_.decompose(ct.c1, alpha_ks);
    }

    // Per-baby precomputation. Naive materializes rotated
    // ciphertexts; HoistedLazy keeps the keyswitch inner products in
    // the extended basis (k0/k1, still carrying the P factor) plus the
    // exact rotated c0, deferring every mod-down to the giant steps.
    // Each baby writes only its own slots, so the babies fan out over
    // the pool (their tower loops then run inline on the worker).
    std::vector<Ciphertext> baby;
    std::vector<RnsPoly> k0(n1), k1(n1), c0rot(n1);
    if (!lazy) {
        baby.resize(n1);
        baby[0] = ct;
    }
    std::vector<unsigned> rotated;
    for (unsigned b = 1; b < n1; ++b) {
        if (baby_used[b])
            rotated.push_back(b);
    }
    parallelFor(0, rotated.size(), [&](std::size_t i) {
        const unsigned b = rotated[i];
        if (!lazy) {
            baby[b] = eval_.rotate(ct, static_cast<int>(b), galois_);
            return;
        }
        const std::size_t gal =
            eval_.galoisFromSteps(static_cast<int>(b));
        const KeySwitchDigits rot = eval_.automorphismDigits(digits, gal);
        auto ip = eval_.innerProduct(rot, galois_.at(gal));
        k0[b] = std::move(ip.first);
        k1[b] = std::move(ip.second);
        c0rot[b] = ct.c0.automorphism(gal);
        ops.automorphisms += level;
    });

    // Giant steps: each g accumulates its diagonals, mods down and
    // rotates into its own inners[g]; the sum then runs serially in
    // g order, so the reduction order never depends on scheduling.
    std::vector<Ciphertext> inners(n2);
    std::vector<char> inner_used(n2, 0);
    parallelFor(0, n2, [&](std::size_t gi) {
        const auto g = static_cast<unsigned>(gi);
        Ciphertext inner;
        bool inner_first = true;
        if (!lazy) {
            for (unsigned b = 0; b < n1; ++b) {
                const std::size_t d = static_cast<std::size_t>(g) * n1 + b;
                if (d >= n)
                    break;
                if (!dc->nonzero[d])
                    continue;
                Ciphertext term =
                    eval_.mulPlain(baby[b], dc->ptData[d], p_scale);
                inner = inner_first ? term : eval_.add(inner, term);
                inner_first = false;
            }
        } else {
            // Lazy accumulation: data-basis MACs for the exact parts
            // (c0 rotations, the unrotated b = 0 term) and ext-basis
            // MACs for the keyswitch products; one mod-down per
            // component per giant step instead of one per rotation.
            RnsPoly ext0, ext1;
            bool ext_first = true;
            for (unsigned b = 0; b < n1; ++b) {
                const std::size_t d = static_cast<std::size_t>(g) * n1 + b;
                if (d >= n)
                    break;
                if (!dc->nonzero[d])
                    continue;
                if (inner_first) {
                    inner.c0 =
                        RnsPoly(ctx_.chain(), ctx_.dataIdx(level), true);
                    inner.c1 =
                        RnsPoly(ctx_.chain(), ctx_.dataIdx(level), true);
                    inner_first = false;
                }
                if (b == 0) {
                    inner.c0.addMulAssign(dc->ptData[d], ct.c0);
                    inner.c1.addMulAssign(dc->ptData[d], ct.c1);
                    ops.polyMults += 2 * level;
                    ops.polyAdds += 2 * level;
                } else {
                    if (ext_first) {
                        ext0 = RnsPoly(ctx_.chain(), digits.extIdx, true);
                        ext1 = RnsPoly(ctx_.chain(), digits.extIdx, true);
                        ext_first = false;
                    }
                    inner.c0.addMulAssign(dc->ptData[d], c0rot[b]);
                    ext0.addMulAssign(dc->ptExt[d], k0[b]);
                    ext1.addMulAssign(dc->ptExt[d], k1[b]);
                    ops.polyMults += level + 2 * digits.extIdx.size();
                    ops.polyAdds += level + 2 * digits.extIdx.size();
                }
            }
            if (!inner_first) {
                if (!ext_first) {
                    inner.c0 += eval_.modDown(ext0);
                    inner.c1 += eval_.modDown(ext1);
                    ops.polyAdds += 2 * level;
                }
                inner.scale = ct.scale * p_scale;
            }
        }
        if (inner_first)
            return;
        if (g > 0) {
            inner = eval_.rotate(
                inner, static_cast<int>(static_cast<std::size_t>(g) * n1),
                galois_);
        }
        inners[g] = std::move(inner);
        inner_used[g] = 1;
    });

    Ciphertext acc;
    bool first = true;
    for (unsigned g = 0; g < n2; ++g) {
        if (!inner_used[g])
            continue;
        acc = first ? std::move(inners[g]) : eval_.add(acc, inners[g]);
        first = false;
    }
    CL_ASSERT(!first, "linear transform with all-zero matrix");
    eval_.rescale(acc);
    return acc;
}

Ciphertext
Bootstrapper::applyCoeffToSlot(const Ciphertext &ct,
                               LinearTransformMode mode) const
{
    return linearTransform(ct, coeffToSlot_, 0, mode);
}

Ciphertext
Bootstrapper::applySlotToCoeff(const Ciphertext &ct,
                               LinearTransformMode mode) const
{
    return linearTransform(ct, slotToCoeff_, 1, mode);
}

std::vector<Ciphertext>
Bootstrapper::evalChebyshev(const std::vector<Ciphertext> &in) const
{
    const ChebyshevPlan &plan = chebPlan_;
    const std::size_t inputs = in.size();

    // Run fn(i, item) for every input i and plan item, fanned out over
    // the pool; every call writes only its own (i, item) slot.
    auto fan_out = [&](const std::vector<unsigned> &items, auto &&fn) {
        const std::size_t k = items.size();
        parallelFor(0, inputs * k, [&](std::size_t x) {
            fn(x / k, items[x % k]);
        });
    };

    // (a) Chebyshev ciphertexts t[i][j] = T_j(in[i]), wave by wave,
    //     with T_j = 2 T_a T_b - T_{a-b} for a = ceil(j/2),
    //     b = floor(j/2).
    std::vector<std::vector<Ciphertext>> t(
        inputs, std::vector<Ciphertext>(plan.maxDegree + 1));
    for (std::size_t i = 0; i < inputs; ++i)
        t[i][1] = in[i];
    for (const std::vector<unsigned> &wave : plan.waves) {
        fan_out(wave, [&](std::size_t i, unsigned j) {
            const unsigned a = (j + 1) / 2;
            const unsigned b = j / 2;
            Ciphertext ta = t[i][a];
            Ciphertext tb = t[i][b];
            const unsigned lvl = std::min(ta.level(), tb.level());
            eval_.levelDrop(ta, lvl);
            eval_.levelDrop(tb, lvl);
            Ciphertext prod = eval_.multiply(ta, tb, relin_);
            eval_.rescale(prod);
            prod = eval_.add(prod, prod); // 2 T_a T_b
            if (a == b) {
                // T_{2a} = 2 T_a^2 - 1.
                std::vector<Complex> one(ctx_.slots(), Complex(1, 0));
                prod = eval_.subPlain(
                    prod, encoder_.encode(one, prod.scale, prod.level()));
            } else {
                // a - b == 1: subtract T_1 aligned to the product.
                Ciphertext t1 = t[i][1];
                alignPair(prod, t1);
                prod = eval_.sub(prod, t1);
            }
            t[i][j] = std::move(prod);
        });
    }

    // (b) Leaf blocks: direct combination sum_j b_j T_j. Every term
    //     is raised to a shared target scale with one raw scalar
    //     multiply, summed, and rescaled once.
    std::vector<std::vector<Ciphertext>> val(
        inputs, std::vector<Ciphertext>(plan.nodes.size()));
    fan_out(plan.leaves, [&](std::size_t i, unsigned id) {
        const std::vector<double> &b = plan.nodes[id].coeffs;
        const Ciphertext &u = in[i];
        std::vector<unsigned> idx;
        for (std::size_t j = 1; j < b.size(); ++j) {
            if (std::abs(b[j]) > kChebTermFloor)
                idx.push_back(static_cast<unsigned>(j));
        }
        if (idx.empty()) {
            // Constant block: zero out a copy of u, add b[0].
            Ciphertext z = mulScalarRaw(u, 0.0, u.scale);
            std::vector<Complex> c0(ctx_.slots(), Complex(b[0], 0));
            val[i][id] = eval_.addPlain(
                z, encoder_.encode(c0, z.scale, z.level()));
            return;
        }
        unsigned lvl = u.level();
        for (unsigned j : idx)
            lvl = std::min(lvl, t[i][j].level());
        const double q_last =
            static_cast<double>(ctx_.chain().modulus(lvl - 1));
        const double ref = t[i][idx[0]].scale;
        const double target = ref * q_last;

        Ciphertext acc;
        bool first = true;
        for (unsigned j : idx) {
            Ciphertext tj = t[i][j];
            eval_.levelDrop(tj, lvl);
            tj = mulScalarRaw(tj, b[j], target);
            acc = first ? std::move(tj) : eval_.add(acc, tj);
            first = false;
        }
        eval_.rescale(acc); // target / q_last == ref
        if (std::abs(b[0]) > kChebTermFloor) {
            std::vector<Complex> c0(ctx_.slots(), Complex(b[0], 0));
            acc = eval_.addPlain(
                acc, encoder_.encode(c0, acc.scale, acc.level()));
        }
        val[i][id] = std::move(acc);
    });

    // (c) Division nodes p = q T_g + r, one height at a time. Each
    //     child has exactly one parent, so it is moved out, not copied.
    for (const std::vector<unsigned> &height : plan.heights) {
        fan_out(height, [&](std::size_t i, unsigned id) {
            const ChebyshevPlan::Node &node = plan.nodes[id];
            Ciphertext cq = std::move(val[i][node.quot]);
            Ciphertext cr = std::move(val[i][node.rem]);
            Ciphertext tg = t[i][node.giant];
            const unsigned lvl = std::min(cq.level(), tg.level());
            eval_.levelDrop(cq, lvl);
            eval_.levelDrop(tg, lvl);
            Ciphertext prod = eval_.multiply(cq, tg, relin_);
            eval_.rescale(prod);
            alignPair(prod, cr);
            val[i][id] = eval_.add(prod, cr);
        });
    }

    std::vector<Ciphertext> out(inputs);
    for (std::size_t i = 0; i < inputs; ++i)
        out[i] = std::move(val[i][0]);
    return out;
}

Ciphertext
Bootstrapper::bootstrap(const Ciphertext &ct) const
{
    CL_ASSERT(ct.level() >= 1, "nothing to bootstrap");
    const unsigned l_top = ctx_.l();
    CL_ASSERT(ct.level() < l_top, "ciphertext already at the top");
    const double d_app = ct.scale;
    const double q0 = static_cast<double>(ctx_.chain().modulus(0));

    // 1. ModRaise: Dec becomes m + q0*k over the full chain.
    Ciphertext raised = eval_.modRaise(ct, l_top);

    // 2. CoeffToSlot, then split the packed real/imag coefficient
    //    halves with a conjugation.
    Ciphertext t =
        linearTransform(raised, coeffToSlot_, 0,
                        LinearTransformMode::HoistedLazy);
    Ciphertext tc = eval_.conjugate(t, galois_);
    Ciphertext u = eval_.add(t, tc);        // slots: 2*x1 (x = m+q0 k)
    Ciphertext vr = eval_.sub(t, tc);       // slots: 2i*x2
    Ciphertext v = mulConst(vr, Complex(0, -1)); // slots: 2*x2
    eval_.levelDrop(u, v.level());

    // Reinterpret scales so slots read as x/(K*q0) in [-1, 1].
    const double s_norm = 2.0 * params_.k * q0 * (t.scale / d_app);
    u.scale = s_norm;
    v.scale = s_norm;

    // 3. EvalMod on both halves at once: slots become ~ m/q0.
    std::vector<Ciphertext> e = evalChebyshev({u, v});
    Ciphertext &eu = e[0];
    Ciphertext &ev = e[1];

    // 4. Recombine w = eu + i*ev, then SlotToCoeff.
    Ciphertext evi = mulConst(ev, Complex(0, 1));
    alignPair(eu, evi);
    Ciphertext w = eval_.add(eu, evi);
    Ciphertext out = linearTransform(w, slotToCoeff_, 1,
                                     LinearTransformMode::HoistedLazy);

    // Slots now hold z(m)/q0; re-declare the scale so they read as
    // z(m)/d_app, the original message.
    out.scale = out.scale * d_app / q0;
    depthUsed_ = l_top - out.level();
    return out;
}

} // namespace cl
