#include "layers.h"

#include <algorithm>
#include <cmath>

#include "ckks/evaluator.h"
#include "util/prng.h"

namespace perfbench {

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<cl::Complex>
randomSlots(std::uint64_t seed, std::size_t slots, double bound)
{
    cl::FastRng rng(seed);
    std::vector<cl::Complex> v(slots);
    for (auto &z : v)
        z = cl::Complex((rng.nextDouble() * 2 - 1) * bound,
                        (rng.nextDouble() * 2 - 1) * bound);
    return v;
}

double
precisionBits(const std::vector<cl::Complex> &want,
              const std::vector<cl::Complex> &got)
{
    double err = 0;
    for (std::size_t i = 0; i < want.size(); ++i)
        err = std::max(err, std::abs(want[i] - got[i]));
    return err > 0 ? -std::log2(err) : 64;
}

namespace {

/** Runs @p fn @p reps times, each under a span called @p name, and
 *  returns the median duration in ms. */
template <typename Fn>
double
timed(SpanLog &log, const cl::CkksContext &ctx, const std::string &name,
      unsigned reps, Fn &&fn)
{
    for (unsigned i = 0; i < reps; ++i) {
        SpanLog::Scope s(log, name, true, &ctx.ops());
        fn();
    }
    return median(log.durations(name));
}

} // namespace

void
probeLayers(const cl::CkksContext &ctx, const cl::CkksEncoder &enc,
            cl::KeyGenerator &keygen, const cl::PublicKey &pk,
            std::uint64_t seed, unsigned reps, SpanLog &log, Result &r)
{
    SpanLog::Scope probe(log, "probe.layers");
    const unsigned top = ctx.l();
    const double scale = ctx.params().scale();
    const cl::Evaluator eval(ctx);
    const cl::Encryptor encryptor(ctx, pk, seed ^ 0x70726f6265ULL);
    const auto vals = randomSlots(seed, ctx.slots(), 0.5);
    const cl::Ciphertext a = encryptor.encryptValues(enc, vals, scale, top);
    const cl::Ciphertext b =
        encryptor.encryptValues(enc, randomSlots(seed + 1, ctx.slots(), 0.5),
                                scale, top);
    const cl::SwitchKey relin = keygen.genRelinKey();
    const cl::GaloisKeys gk = keygen.genRotationKeys({1});

    // rns: alternate in-place transforms of one full-basis polynomial
    // (it starts in NTT form), ending in coefficient form.
    cl::RnsPoly p = a.c0;
    for (unsigned i = 0; i < reps * 10; ++i) {
        if (i) {
            SpanLog::Scope s(log, "rns.ntt_fwd", true, &ctx.ops());
            p.toNtt();
        }
        SpanLog::Scope s(log, "rns.ntt_inv", true, &ctx.ops());
        p.toCoeff();
    }
    r.layer("rns.ntt_fwd_us", median(log.durations("rns.ntt_fwd")) * 1e3,
            "us");
    r.layer("rns.ntt_inv_us", median(log.durations("rns.ntt_inv")) * 1e3,
            "us");

    const cl::BaseConverter &conv =
        ctx.converter(ctx.dataIdx(top), ctx.specialIdx());
    const auto views = p.residueViews();
    std::vector<std::vector<cl::u64>> out;
    r.layer("rns.baseconv_us",
            timed(log, ctx, "rns.baseconv", reps * 10,
                  [&] { conv.convert(views, out); }) * 1e3,
            "us");

    // Keyswitch stages on a relinearization-shaped input.
    cl::KeySwitchDigits digits;
    std::pair<cl::RnsPoly, cl::RnsPoly> acc;
    r.layer("ckks.ks.decompose_ms",
            timed(log, ctx, "ckks.ks.decompose", reps,
                  [&] { digits = eval.decompose(a.c1, relin.alphaKs); }),
            "ms");
    r.layer("ckks.ks.inner_product_ms",
            timed(log, ctx, "ckks.ks.inner_product", reps,
                  [&] { acc = eval.innerProduct(digits, relin); }),
            "ms");
    cl::RnsPoly down;
    r.layer("ckks.ks.mod_down_ms",
            timed(log, ctx, "ckks.ks.mod_down", reps,
                  [&] { down = eval.modDown(acc.first); }),
            "ms");

    cl::Ciphertext c;
    r.layer("ckks.rotate_ms",
            timed(log, ctx, "ckks.rotate", reps,
                  [&] { c = eval.rotate(a, 1, gk); }),
            "ms");
    cl::Ciphertext prod;
    r.layer("ckks.multiply_ms",
            timed(log, ctx, "ckks.multiply", reps,
                  [&] { prod = eval.multiply(a, b, relin); }),
            "ms");
    for (unsigned i = 0; i < reps; ++i) {
        cl::Ciphertext t = prod;
        SpanLog::Scope s(log, "ckks.rescale", true, &ctx.ops());
        eval.rescale(t);
    }
    r.layer("ckks.rescale_ms", median(log.durations("ckks.rescale")),
            "ms");
    cl::RnsPoly pt;
    r.layer("ckks.encode_ms",
            timed(log, ctx, "ckks.encode", reps,
                  [&] { pt = enc.encode(vals, scale, top); }),
            "ms");
    r.layer("ckks.mul_plain_ms",
            timed(log, ctx, "ckks.mul_plain", reps,
                  [&] { c = eval.mulPlain(a, pt, scale); }),
            "ms");
}

void
counterMetrics(const Span &s, double per, Result &r)
{
    const Counters &d = s.delta;
    auto add = [&](const char *name, double v) {
        r.layer(name, v / per, "count");
    };
    add("rns.kernel.ntts", d.kernels.ntts);
    add("rns.kernel.mults", d.kernels.mults);
    add("rns.kernel.adds", d.kernels.adds);
    add("rns.kernel.automorphisms", d.kernels.automorphisms);
    add("rns.mem.passes", d.mem.passes);
    r.layer("rns.mem.bytes", d.mem.bytes / per, "B");
    add("ckks.opcounter.decomposes", d.decomposes);
    add("ckks.opcounter.inner_products", d.innerProducts);
    add("ckks.opcounter.mod_downs", d.modDowns);
    add("poly.pool.allocs_per_run", d.poolAllocs);
    add("poly.pool.hits_per_run", d.poolHits);
    add("poly.pool.heap_allocs_per_run", d.poolMisses);
    r.layer("poly.pool.hit_ratio",
            d.poolAllocs ? static_cast<double>(d.poolHits) / d.poolAllocs
                         : 0,
            "ratio");
    r.layer("poly.pool.cached_mb",
            static_cast<double>(cl::polyPoolStats().cachedBytes) /
                (1 << 20),
            "MiB");
}

} // namespace perfbench
