/**
 * @file
 * Host CKKS pipeline benchmarks: the BSGS linear transform (the
 * dominant non-EvalMod cost of bootstrapping) under five execution
 * strategies —
 *
 *   naive_fresh:  per-rotation keyswitch at the square 16x16 split,
 *                 diagonals re-encoded every call (the historical
 *                 baseline behavior);
 *   naive_cached: as above with cached diagonal plaintexts;
 *   hoisted:      one shared digit decompose for all baby rotations
 *                 (square split — eager mod-downs gain nothing from a
 *                 wider one);
 *   lazy_square:  shared decompose + extended-basis accumulation with
 *                 one mod-down per giant step, still at 16x16;
 *   lazy:         the default configuration — lazy accumulation at
 *                 the auto-widened 64x4 split, where deferred
 *                 mod-downs and hoisted babies pay off;
 *
 * plus the full bootstrap pipeline naive vs lazy. The checked-in
 * BENCH_host.json table must show >= 1.5x naive_fresh -> lazy on the
 * CoeffToSlot transform.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ckks/bootstrap.h"
#include "rns/simd/kernels.h"

namespace {

using namespace cl;

/** Shared context/keys/bootstrappers: built once, reused by every
 *  benchmark (key generation dominates setup, not measurement). */
struct Host
{
    std::unique_ptr<CkksContext> ctx;
    std::unique_ptr<CkksEncoder> enc;
    std::unique_ptr<KeyGenerator> keygen;
    PublicKey pk;
    std::unique_ptr<Encryptor> encryptor;
    std::unique_ptr<Bootstrapper> cached;   // square split, cached
    std::unique_ptr<Bootstrapper> uncached; // square split, no cache
    std::unique_ptr<Bootstrapper> wide;     // default (auto) split
    Ciphertext top;    // fresh ciphertext at the top of the chain
    Ciphertext bottom; // exhausted ciphertext at level 1

    Host()
    {
        CkksParams p;
        p.logN = 9;
        p.l = 20;
        p.alpha = 20;
        p.firstModBits = 50;
        p.scaleBits = 55;
        p.specialBits = 55;
        p.secretHamming = 16;
        ctx = std::make_unique<CkksContext>(p);
        enc = std::make_unique<CkksEncoder>(*ctx);
        keygen = std::make_unique<KeyGenerator>(*ctx);
        pk = keygen->genPublicKey();
        encryptor = std::make_unique<Encryptor>(*ctx, pk);

        BootstrapParams bp;
        bp.ltBabySteps = 16; // historical square split
        bp.cacheDiagonals = true;
        cached = std::make_unique<Bootstrapper>(*ctx, *enc, *keygen, bp);
        bp.cacheDiagonals = false;
        uncached =
            std::make_unique<Bootstrapper>(*ctx, *enc, *keygen, bp);
        wide = std::make_unique<Bootstrapper>(*ctx, *enc, *keygen);

        FastRng rng(1);
        std::vector<Complex> v(ctx->slots());
        for (auto &z : v)
            z = Complex(rng.nextDouble() - 0.5, rng.nextDouble() - 0.5);
        const double app_scale = 1099511627776.0; // 2^40
        top = encryptor->encryptValues(*enc, v, ctx->params().scale(),
                                       ctx->l());
        bottom =
            encryptor->encrypt(enc->encode(v, app_scale, 1), app_scale);
    }
};

Host &
host()
{
    static Host h;
    return h;
}

/** 0 = naive_fresh, 1 = naive_cached, 2 = hoisted, 3 = lazy_square,
 *  4 = lazy (default wide split). */
void
BM_CoeffToSlot(benchmark::State &state)
{
    Host &h = host();
    const int variant = static_cast<int>(state.range(0));
    const Bootstrapper &boot = variant == 0   ? *h.uncached
                               : variant == 4 ? *h.wide
                                              : *h.cached;
    const LinearTransformMode mode =
        variant <= 1 ? LinearTransformMode::Naive
        : variant == 2 ? LinearTransformMode::HoistedEager
                       : LinearTransformMode::HoistedLazy;
    static const char *const kNames[] = {"naive_fresh", "naive_cached",
                                         "hoisted", "lazy_square",
                                         "lazy"};
    state.SetLabel(kNames[variant]);

    // Prime the diagonal cache outside the timed region.
    benchmark::DoNotOptimize(boot.applyCoeffToSlot(h.top, mode));
    for (auto _ : state) {
        Ciphertext out = boot.applyCoeffToSlot(h.top, mode);
        benchmark::DoNotOptimize(out.c0.data().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoeffToSlot)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/** Arg: naive vs lazy pipeline. */
void
BM_Bootstrap(benchmark::State &state)
{
    Host &h = host();
    const bool lazy = state.range(0) != 0;
    BootstrapParams bp;
    bp.ltMode = lazy ? LinearTransformMode::HoistedLazy
                     : LinearTransformMode::Naive;
    bp.cacheDiagonals = lazy; // naive leg models the historical cost
    if (!lazy)
        bp.ltBabySteps = 16; // historical square split
    state.SetLabel(lazy ? "lazy_cached" : "naive_fresh");
    Bootstrapper boot(*h.ctx, *h.enc, *h.keygen, bp);
    // Prime the diagonal caches (including the wide ext-basis
    // plaintexts) outside the timed region.
    benchmark::DoNotOptimize(boot.bootstrap(h.bottom));
    for (auto _ : state) {
        Ciphertext fresh = boot.bootstrap(h.bottom);
        benchmark::DoNotOptimize(fresh.c0.data().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Bootstrap)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/** Keyswitch inner product of a rotation at a bandwidth-bound shape:
 *  logN = 13, dnum = 4 digits over a 20-tower extended basis, so one
 *  digit image is ~1.3 MB. Includes the digit automorphism. */
void
BM_KeySwitchInnerProduct(benchmark::State &state)
{
    struct Ip
    {
        std::unique_ptr<CkksContext> ctx;
        std::unique_ptr<CkksEncoder> enc;
        std::unique_ptr<KeyGenerator> keygen;
        std::unique_ptr<Evaluator> eval;
        GaloisKeys galois;
        std::size_t gal = 0;
        KeySwitchDigits digits;

        Ip()
        {
            CkksParams p;
            p.logN = 13;
            p.l = 16;
            p.alpha = 4;
            p.firstModBits = 50;
            p.scaleBits = 40;
            p.specialBits = 50;
            ctx = std::make_unique<CkksContext>(p);
            enc = std::make_unique<CkksEncoder>(*ctx);
            keygen = std::make_unique<KeyGenerator>(*ctx);
            eval = std::make_unique<Evaluator>(*ctx);
            galois = keygen->genRotationKeys({1}, /*conjugate=*/false);
            gal = eval->galoisFromSteps(1);
            const PublicKey pk = keygen->genPublicKey();
            Encryptor encryptor(*ctx, pk, 7);
            FastRng rng(31);
            std::vector<Complex> v(ctx->slots());
            for (auto &z : v)
                z = Complex(rng.nextDouble() - 0.5, 0);
            const Ciphertext ct = encryptor.encryptValues(
                *enc, v, ctx->params().scale(), ctx->l());
            digits = eval->decompose(ct.c1, ctx->alpha());
        }
    };
    static Ip ip;
    for (auto _ : state) {
        const KeySwitchDigits rot =
            ip.eval->automorphismDigits(ip.digits, ip.gal);
        auto acc = ip.eval->innerProduct(rot, ip.galois.at(ip.gal));
        benchmark::DoNotOptimize(acc.first.data().data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeySwitchInnerProduct)->Unit(benchmark::kMillisecond);

} // namespace

#include "bench_main.h"

int
main(int argc, char **argv)
{
    return cl::bench::clBenchMain("host_bootstrap", argc, argv);
}
