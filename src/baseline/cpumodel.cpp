#include "cpumodel.h"

#include <chrono>

#include "rns/ntt.h"
#include "rns/primes.h"
#include "rns/simd/kernels.h"
#include "util/prng.h"

namespace cl {

namespace {

double
timeLoop(const std::function<void()> &body, unsigned iters)
{
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i)
        body();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

} // namespace

CpuKernelRates
measureCpuKernels()
{
    CpuKernelRates r;
    const std::size_t n = 1 << 14;
    const u64 q = generateNttPrimes(28, n, 1)[0];
    const KernelTable &k = kernels();
    auto random = [&](std::uint64_t seed, std::size_t len) {
        std::vector<u64> v(len);
        FastRng rng(seed);
        for (auto &x : v)
            x = rng.nextBelow(q);
        return v;
    };

    // Element-wise modular multiplies: the kernel behind every RnsPoly
    // product.
    {
        std::vector<u64> a = random(1, n);
        const std::vector<u64> b = random(2, n);
        const unsigned iters = 400;
        const double secs = timeLoop(
            [&] { k.mulModVec(a.data(), b.data(), n, q); }, iters);
        r.modmulPerSec = iters * static_cast<double>(n) / secs;
    }

    // NTT butterflies.
    {
        NttTables tables(n, q);
        std::vector<u64> a = random(3, n);
        const unsigned iters = 100;
        const double secs = timeLoop([&] { tables.forward(a.data()); },
                                     iters);
        const double bflys =
            static_cast<double>(iters) * n / 2 * log2Exact(n);
        r.nttButterflyPerSec = bflys / secs;
    }

    // changeRNSBase multiply-accumulate: one destination tower of an
    // 8-source conversion, as BaseConverter::convert runs it.
    {
        const std::size_t ls = 8;
        const std::vector<u64> x = random(4, ls * n), cs = random(5, ls);
        std::vector<const u64 *> xs;
        for (std::size_t i = 0; i < ls; ++i)
            xs.push_back(x.data() + i * n);
        std::vector<u64> y(n);
        const unsigned iters = 50;
        const double secs = timeLoop(
            [&] {
                k.baseconvMacVec(y.data(), xs.data(), cs.data(), ls, n, q,
                                 q);
            },
            iters);
        r.macPerSec = iters * static_cast<double>(ls * n) / secs;
    }
    return r;
}

KswOpCount
keyswitchCost(unsigned l, unsigned t, std::size_t n)
{
    KswOpCount c;
    const unsigned a = static_cast<unsigned>(ceilDiv(l, t));
    const unsigned ext = l + a;
    unsigned dnum = 0;
    unsigned left = l;
    while (left > 0) {
        const unsigned d = std::min(a, left);
        // Single-prime digits lift by broadcast reduction — no
        // change-RNS-base multiplies (the standard algorithm).
        if (d > 1)
            c.macVecs += static_cast<std::uint64_t>(d) * (ext - d);
        left -= d;
        ++dnum;
    }
    c.ntts = static_cast<std::uint64_t>(dnum) * ext // mod-up
             + 2ull * (a + l);                      // mod-down
    c.macVecs += 2ull * a * l;                      // mod-down
    c.mulVecs = 2ull * dnum * ext + 2ull * l;       // hint MAC, P^-1
    c.addVecs = 2ull * dnum * ext + 4ull * l;
    c.kshWords = 2ull * dnum * ext * n;
    return c;
}

double
CpuModel::scalarMultiplies(const HomProgram &hp)
{
    const double n = static_cast<double>(hp.n());
    const double logn = log2Exact(hp.n());
    double mults = 0;
    for (const HomOp &op : hp.ops) {
        const unsigned l = op.level;
        switch (op.kind) {
          case HomOpKind::Mul:
          case HomOpKind::Rotate:
          case HomOpKind::Conjugate: {
            const KswOpCount k = keyswitchCost(l, op.digits, hp.n());
            mults += (k.ntts * logn / 2 + k.macVecs + k.mulVecs) * n;
            if (op.kind == HomOpKind::Mul)
                mults += 4.0 * l * n; // tensor product
            break;
          }
          case HomOpKind::MulPlain:
            mults += 2.0 * l * n;
            break;
          case HomOpKind::ModRaise:
            mults += (2.0 * (op.level + op.outLevel) * logn / 2 +
                      2.0 * l * (op.outLevel - l)) * n;
            break;
          default:
            break;
        }
        // Rescale folded into Mul/MulPlain cost models.
        if (op.outLevel < op.level && op.kind != HomOpKind::ModRaise)
            mults += 2.0 * (op.outLevel + op.level) * logn / 2 * n;
    }
    return mults;
}

double
CpuModel::run(const HomProgram &hp) const
{
    const double n = static_cast<double>(hp.n());
    const double logn = log2Exact(hp.n());
    const double core_scale = params_.cores * params_.parallelEff;

    double compute = 0; // seconds
    double traffic = 0; // bytes
    const double bytes_per_word = 8; // CPU libraries use 64-bit words

    for (const HomOp &op : hp.ops) {
        const unsigned l = op.level;
        double ntts = 0, macs = 0, muls = 0;
        switch (op.kind) {
          case HomOpKind::Mul:
          case HomOpKind::Rotate:
          case HomOpKind::Conjugate: {
            const KswOpCount k = keyswitchCost(l, op.digits, hp.n());
            ntts += static_cast<double>(k.ntts);
            macs += static_cast<double>(k.macVecs);
            muls += static_cast<double>(k.mulVecs);
            traffic += k.kshWords * bytes_per_word; // hint streamed in
            if (op.kind == HomOpKind::Mul)
                muls += 4.0 * l;
            break;
          }
          case HomOpKind::MulPlain:
            muls += 2.0 * l;
            break;
          case HomOpKind::Add:
          case HomOpKind::AddPlain:
            muls += 0.25 * l; // adds are ~4x cheaper than muls
            break;
          case HomOpKind::ModRaise:
            ntts += 2.0 * (op.level + op.outLevel);
            macs += 2.0 * l * (op.outLevel - l);
            break;
          default:
            break;
        }
        if (op.outLevel < op.level && op.kind != HomOpKind::ModRaise)
            ntts += 2.0 * (op.outLevel + op.level);

        // Every op streams its ciphertext operands through the cache
        // hierarchy at least once (tens-of-MB ciphertexts do not fit).
        traffic += 2.0 * 2.0 * l * n * bytes_per_word;

        compute += ntts * (n / 2 * logn) / rates_.nttButterflyPerSec +
                   macs * n / rates_.macPerSec +
                   muls * n / rates_.modmulPerSec;
    }

    const double compute_time = compute / core_scale;
    const double mem_time = traffic / params_.memBandwidth;
    return std::max(compute_time, mem_time);
}

} // namespace cl
