/**
 * Determinism of the parallel execution layer: every tower-parallel
 * kernel must produce byte-identical ciphertexts at any worker count.
 * parallelFor only partitions which thread runs a tower, never what
 * the tower computes, so CL_THREADS=1 and CL_THREADS=8 must agree
 * exactly — this is the guarantee that lets servers scale worker
 * counts without changing results.
 *
 * BootstrapParallel extends the guarantee to op-level parallelism:
 * one bootstrap fans its BSGS baby and giant steps and its EvalMod
 * waves out over the pool, and must still produce the same bytes and
 * the same op and kernel counts at any worker count, pooled or not.
 */

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "ckks/bootstrap.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "poly/polypool.h"
#include "util/instrument.h"
#include "util/threadpool.h"

namespace cl {
namespace {

class ParallelDeterminismTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ctx_ = std::make_unique<CkksContext>(CkksParams::testSmall());
        enc_ = std::make_unique<CkksEncoder>(*ctx_);
        keygen_ = std::make_unique<KeyGenerator>(*ctx_);
        pk_ = keygen_->genPublicKey();
        encryptor_ = std::make_unique<Encryptor>(*ctx_, pk_);
        eval_ = std::make_unique<Evaluator>(*ctx_);
        relin_ = keygen_->genRelinKey();
        galois_ = keygen_->genRotationKeys({1}, /*conjugate=*/false);
    }

    void
    TearDown() override
    {
        ThreadPool::setGlobalThreads(1); // leave no workers behind
    }

    /**
     * The chain under test: multiply + relinearize, rescale, rotate,
     * then modRaise (the bootstrap primitive) back to the top. This
     * exercises every parallelized kernel: NTTs, element-wise ops,
     * automorphism, rescale, base conversion, and keyswitching.
     */
    Ciphertext
    runChain(const Ciphertext &a, const Ciphertext &b)
    {
        Ciphertext prod = eval_->multiply(a, b, relin_);
        eval_->rescale(prod);
        Ciphertext rot = eval_->rotate(prod, 1, galois_);
        return eval_->modRaise(rot, ctx_->l());
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
    std::unique_ptr<KeyGenerator> keygen_;
    PublicKey pk_;
    std::unique_ptr<Encryptor> encryptor_;
    std::unique_ptr<Evaluator> eval_;
    SwitchKey relin_;
    GaloisKeys galois_;
};

TEST_F(ParallelDeterminismTest, ChainIsBitIdenticalAcrossWorkerCounts)
{
    FastRng rng(17);
    std::vector<Complex> va(ctx_->slots()), vb(ctx_->slots());
    for (std::size_t i = 0; i < ctx_->slots(); ++i) {
        va[i] = Complex(rng.nextDouble() * 2 - 1, 0);
        vb[i] = Complex(rng.nextDouble() * 2 - 1, 0);
    }
    const double s = ctx_->params().scale();
    const Ciphertext ca =
        encryptor_->encryptValues(*enc_, va, s, ctx_->l());
    const Ciphertext cb =
        encryptor_->encryptValues(*enc_, vb, s, ctx_->l());

    ThreadPool::setGlobalThreads(1);
    const Ciphertext serial = runChain(ca, cb);

    ThreadPool::setGlobalThreads(8);
    const Ciphertext parallel = runChain(ca, cb);

    ASSERT_EQ(serial.c0.towers(), parallel.c0.towers());
    EXPECT_TRUE(serial.c0.data() == parallel.c0.data())
        << "c0 diverged between 1 and 8 workers";
    EXPECT_TRUE(serial.c1.data() == parallel.c1.data())
        << "c1 diverged between 1 and 8 workers";
    EXPECT_EQ(serial.scale, parallel.scale);
}

TEST_F(ParallelDeterminismTest, RepeatedParallelRunsAgree)
{
    // Same worker count twice: guards against any hidden scheduling
    // dependence inside a single configuration.
    FastRng rng(23);
    std::vector<Complex> v(ctx_->slots());
    for (auto &z : v)
        z = Complex(rng.nextDouble() * 2 - 1, 0);
    const double s = ctx_->params().scale();
    const Ciphertext ct =
        encryptor_->encryptValues(*enc_, v, s, ctx_->l());

    ThreadPool::setGlobalThreads(8);
    const Ciphertext r1 = runChain(ct, ct);
    const Ciphertext r2 = runChain(ct, ct);
    EXPECT_TRUE(r1.c0.data() == r2.c0.data());
    EXPECT_TRUE(r1.c1.data() == r2.c1.data());
}

bool
sameCiphertext(const Ciphertext &a, const Ciphertext &b)
{
    return a.c0.data() == b.c0.data() && a.c1.data() == b.c1.data() &&
           a.scale == b.scale;
}

/** Plain copy of the OpCounter fields, comparable with ==. */
struct OpCounts
{
    std::uint64_t polyMults, polyAdds, ntts, automorphisms, decomposes,
        innerProducts, modDowns;

    static OpCounts
    of(const OpCounter &c)
    {
        return {c.polyMults, c.polyAdds, c.ntts, c.automorphisms,
                c.decomposes, c.innerProducts, c.modDowns};
    }

    friend OpCounts
    operator-(const OpCounts &a, const OpCounts &b)
    {
        return {a.polyMults - b.polyMults, a.polyAdds - b.polyAdds,
                a.ntts - b.ntts, a.automorphisms - b.automorphisms,
                a.decomposes - b.decomposes,
                a.innerProducts - b.innerProducts,
                a.modDowns - b.modDowns};
    }

    friend bool operator==(const OpCounts &, const OpCounts &) = default;
};

/** One Bootstrapper at the demo and benchmark parameters (logN 9,
 *  L 20, alpha 20), shared by the suite: building one takes longer
 *  than most of the checks. */
class BootstrapParallel : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        CkksParams p;
        p.logN = 9;
        p.l = 20;
        p.alpha = 20;
        p.firstModBits = 50;
        p.scaleBits = 55;
        p.specialBits = 55;
        p.secretHamming = 16;
        ctx_ = new CkksContext(p);
        enc_ = new CkksEncoder(*ctx_);
        keygen_ = new KeyGenerator(*ctx_);
        boot_ = new Bootstrapper(*ctx_, *enc_, *keygen_);
        const PublicKey pk = keygen_->genPublicKey();
        Encryptor encryptor(*ctx_, pk, 0x70617261ULL);
        FastRng rng(5);
        std::vector<Complex> v(ctx_->slots());
        for (auto &z : v)
            z = Complex(rng.nextDouble() - 0.5, rng.nextDouble() - 0.5);
        const double s = 1099511627776.0; // 2^40
        exhausted_ = new Ciphertext(
            encryptor.encrypt(enc_->encode(v, s, 1), s));
        top_ = new Ciphertext(
            encryptor.encrypt(enc_->encode(v, s, ctx_->l()), s));
    }

    static void
    TearDownTestSuite()
    {
        delete top_;
        delete exhausted_;
        delete boot_;
        delete keygen_;
        delete enc_;
        delete ctx_;
    }

    void
    SetUp() override
    {
        poolWas_ = polyPoolEnabled();
    }

    void
    TearDown() override
    {
        polyPoolSetEnabled(poolWas_);
        ThreadPool::setGlobalThreads(1);
    }

    /** What one call produced: its output and its counter deltas. */
    struct Run
    {
        Ciphertext out;
        OpCounts ops;
        KernelCounts kernels;
    };

    static Run
    measure(const std::function<Ciphertext()> &fn)
    {
        const OpCounts ops0 = OpCounts::of(ctx_->ops());
        const KernelCounts k0 = kernelCounters().snapshot();
        Run r;
        r.out = fn();
        r.ops = OpCounts::of(ctx_->ops()) - ops0;
        r.kernels = kernelCounters().snapshot() - k0;
        return r;
    }

    /** Runs @p fn under every worker count x pool setting and checks
     *  each run against the first. */
    static void
    expectIdenticalEverywhere(const std::function<Ciphertext()> &fn)
    {
        fn(); // fill the diagonal cache: later runs must all hit it
        bool have_ref = false;
        Run ref;
        for (unsigned threads : {1u, 2u, 4u}) {
            for (bool pool : {true, false}) {
                ThreadPool::setGlobalThreads(threads);
                polyPoolSetEnabled(pool);
                const Run r = measure(fn);
                if (!have_ref) {
                    ref = r;
                    have_ref = true;
                    continue;
                }
                const std::string where = std::to_string(threads) +
                                          " threads, pool " +
                                          (pool ? "on" : "off");
                EXPECT_TRUE(sameCiphertext(ref.out, r.out)) << where;
                EXPECT_TRUE(ref.ops == r.ops) << where;
                EXPECT_TRUE(ref.kernels == r.kernels) << where;
            }
        }
    }

    static CkksContext *ctx_;
    static CkksEncoder *enc_;
    static KeyGenerator *keygen_;
    static Bootstrapper *boot_;
    static Ciphertext *exhausted_;
    static Ciphertext *top_;
    bool poolWas_ = true;
};

CkksContext *BootstrapParallel::ctx_ = nullptr;
CkksEncoder *BootstrapParallel::enc_ = nullptr;
KeyGenerator *BootstrapParallel::keygen_ = nullptr;
Bootstrapper *BootstrapParallel::boot_ = nullptr;
Ciphertext *BootstrapParallel::exhausted_ = nullptr;
Ciphertext *BootstrapParallel::top_ = nullptr;

TEST_F(BootstrapParallel, BootstrapIsIdenticalAcrossWorkersAndPool)
{
    expectIdenticalEverywhere([] { return boot_->bootstrap(*exhausted_); });
}

TEST_F(BootstrapParallel, CoeffToSlotIsIdenticalInEveryMode)
{
    for (LinearTransformMode mode :
         {LinearTransformMode::Naive, LinearTransformMode::HoistedLazy}) {
        SCOPED_TRACE(static_cast<int>(mode));
        expectIdenticalEverywhere(
            [mode] { return boot_->applyCoeffToSlot(*top_, mode); });
    }
}

TEST_F(BootstrapParallel, ConcurrentModesShareTheDiagonalCache)
{
    // A Naive transform caches the data-basis diagonals only. A
    // HoistedLazy one on the same level then adds the ext-basis ones
    // to that entry while a second Naive one may still be reading it.
    // Each fresh Bootstrapper draws its own keys, so the serial
    // results come from the same instance: the Naive one first (it
    // leaves the entry without ext plaintexts), the lazy one last.
    // The race is timing-dependent, so it runs a few rounds. Under
    // ThreadSanitizer, an upgrade that replaces the entry instead of
    // filling it in place shows up as a race on the freed diagonals.
    ThreadPool::setGlobalThreads(4);
    for (int round = 0; round < 4; ++round) {
        const Bootstrapper fresh(*ctx_, *enc_, *keygen_);
        const Ciphertext naive_ref =
            fresh.applyCoeffToSlot(*top_, LinearTransformMode::Naive);
        Ciphertext naive, lazy;
        std::atomic<bool> naive_started{false};
        std::thread a([&] {
            naive_started = true;
            naive = fresh.applyCoeffToSlot(*top_,
                                           LinearTransformMode::Naive);
        });
        std::thread b([&] {
            while (!naive_started)
                std::this_thread::yield();
            lazy = fresh.applyCoeffToSlot(*top_,
                                          LinearTransformMode::HoistedLazy);
        });
        a.join();
        b.join();
        EXPECT_TRUE(sameCiphertext(naive_ref, naive)) << round;
        EXPECT_TRUE(sameCiphertext(
            fresh.applyCoeffToSlot(*top_, LinearTransformMode::HoistedLazy),
            lazy))
            << round;
    }
}

/**
 * The T_j degrees the memoised serial recursion builds for
 * sum_j c_j T_j: every leaf term above the floor and every division
 * degree, each pulling in its two factors. T_1 (the input) excluded.
 */
std::set<unsigned>
serialRecursionBasis(const std::vector<double> &coeffs, unsigned m)
{
    std::set<unsigned> built = {1};
    std::function<void(unsigned)> get_t = [&](unsigned j) {
        if (built.count(j))
            return;
        get_t((j + 1) / 2);
        get_t(j / 2);
        built.insert(j);
    };
    std::function<void(const std::vector<double> &)> rec =
        [&](const std::vector<double> &b) {
            const std::size_t deg = b.size() - 1;
            if (deg < m) {
                for (std::size_t j = 1; j <= deg; ++j) {
                    if (std::abs(b[j]) > 1e-13)
                        get_t(static_cast<unsigned>(j));
                }
                return;
            }
            unsigned g = m;
            while (2 * g <= deg)
                g *= 2;
            auto [q, r] = chebDivide(b, g);
            rec(q);
            rec(r);
            get_t(g);
        };
    rec(coeffs);
    built.erase(1);
    return built;
}

/** Checks the plan's waves against the serial recursion's basis and
 *  the wave order against the factor dependencies. */
void
expectPlanMatchesRecursion(const std::vector<double> &coeffs, unsigned m)
{
    const ChebyshevPlan plan = planChebyshev(coeffs, m);
    std::set<unsigned> planned;
    std::set<unsigned> ready = {1};
    for (const auto &wave : plan.waves) {
        for (unsigned j : wave) {
            EXPECT_TRUE(ready.count((j + 1) / 2) && ready.count(j / 2))
                << "T_" << j << " built before its factors";
            EXPECT_TRUE(planned.insert(j).second) << "T_" << j << " twice";
        }
        ready.insert(wave.begin(), wave.end());
    }
    EXPECT_EQ(planned, serialRecursionBasis(coeffs, m));
    EXPECT_EQ(plan.maxDegree, planned.empty() ? 1u : *planned.rbegin());
    // Every inner node's children sit at a lower height.
    std::vector<char> done(plan.nodes.size(), 0);
    for (unsigned id : plan.leaves)
        done[id] = 1;
    for (const auto &height : plan.heights) {
        for (unsigned id : height) {
            EXPECT_TRUE(done[plan.nodes[id].quot] && done[plan.nodes[id].rem]);
        }
        for (unsigned id : height)
            done[id] = 1;
    }
    EXPECT_TRUE(std::all_of(done.begin(), done.end(),
                            [](char d) { return d != 0; }));
}

TEST_F(BootstrapParallel, WavePlanBuildsTheSerialBasis)
{
    const BootstrapParams dflt;
    expectPlanMatchesRecursion(evalModCoefficients(dflt), dflt.babySteps);

    // One odd and one even degree, dense pseudo-random coefficients
    // with a few exact zeros (which drop out of the leaf terms).
    for (unsigned degree : {101u, 64u}) {
        SCOPED_TRACE(degree);
        FastRng rng(degree);
        std::vector<double> c(degree + 1);
        for (std::size_t j = 0; j <= degree; ++j)
            c[j] = j % 7 == 3 ? 0.0 : rng.nextDouble() - 0.5;
        expectPlanMatchesRecursion(c, 8);
    }
}

} // namespace
} // namespace cl
