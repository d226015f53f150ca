/**
 * @file
 * boot-single and boot-batch: exhausted (level-1) ciphertexts through
 * Bootstrapper::bootstrap at the demo parameters (logN 9, L 20,
 * alpha 20), closed loop. boot-single sends one ciphertext at a time
 * and its kernels go tower-parallel on the 4-thread global pool;
 * boot-batch sends 4 independent ciphertexts at a time through
 * runTaskBatch on 4 graph workers, which run their kernels inline.
 */

#include <functional>
#include <memory>

#include "ckks/bootstrap.h"
#include "layers.h"
#include "runtime/taskgraph.h"
#include "util/threadpool.h"

namespace perfbench {

namespace {

/** Precision every bootstrap output must reach, in bits. */
constexpr double kPrecisionFloorBits = 12;
constexpr unsigned kBatch = 4;
constexpr double kAppScale = 1099511627776.0; // 2^40

struct BootSetup
{
    std::unique_ptr<cl::CkksContext> ctx;
    std::unique_ptr<cl::CkksEncoder> enc;
    std::unique_ptr<cl::KeyGenerator> keygen;
    cl::PublicKey pk;
    std::unique_ptr<cl::Decryptor> dec;
    std::unique_ptr<cl::Bootstrapper> boot;
};

/** One request's input: its cleartext slots and their exhausted
 *  (level-1) encryption. */
struct Input
{
    std::vector<cl::Complex> slots;
    cl::Ciphertext ct;
};

Input
makeInput(const BootSetup &s, std::uint64_t seed)
{
    Input in;
    in.slots = randomSlots(seed, s.ctx->slots(), 0.5);
    cl::Encryptor encryptor(*s.ctx, s.pk, seed ^ 0x626f6f74ULL);
    in.ct = encryptor.encrypt(s.enc->encode(in.slots, kAppScale, 1),
                              kAppScale);
    return in;
}

/** Context, keys, Bootstrapper and one warming bootstrap that fills
 *  the diagonal caches. */
std::unique_ptr<BootSetup>
makeSetup(std::uint64_t seed)
{
    auto owned = std::make_unique<BootSetup>();
    BootSetup &s = *owned;
    cl::CkksParams p;
    p.logN = 9;
    p.l = 20;
    p.alpha = 20;
    p.firstModBits = 50;
    p.scaleBits = 55;
    p.specialBits = 55;
    p.secretHamming = 16;
    s.ctx = std::make_unique<cl::CkksContext>(p);
    s.enc = std::make_unique<cl::CkksEncoder>(*s.ctx);
    s.keygen = std::make_unique<cl::KeyGenerator>(*s.ctx);
    s.pk = s.keygen->genPublicKey();
    s.dec = std::make_unique<cl::Decryptor>(*s.ctx, s.keygen->secretKey());
    s.boot = std::make_unique<cl::Bootstrapper>(*s.ctx, *s.enc, *s.keygen);
    s.boot->bootstrap(makeInput(s, mixSeed(seed, ~0ull)).ct);
    return owned;
}

/** Decrypts @p out, compares it with the input slots and records the
 *  check; returns the precision in bits. With @p corrupt, one residue
 *  word of the output is flipped first. */
double
checkOutput(const BootSetup &s, const Input &in, cl::Ciphertext &out,
            bool corrupt, Result &r)
{
    if (corrupt)
        out.c0.residue(0)[0] ^= 1ull << 40;
    const double bits =
        precisionBits(in.slots, s.dec->decryptValues(*s.enc, out));
    r.check(bits >= kPrecisionFloorBits);
    return bits;
}

/** One request: a single bootstrap, or a batch of kBatch through the
 *  task graph on @p workers. Returns its wall time in ms. */
double
request(const BootSetup &s, bool batch, unsigned workers,
        std::vector<Input> &in, std::vector<cl::Ciphertext> &out,
        cl::TaskGraphStats *stats = nullptr)
{
    const auto t0 = Clock::now();
    if (!batch) {
        out[0] = s.boot->bootstrap(in[0].ct);
    } else {
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < in.size(); ++i)
            jobs.push_back([&, i] { out[i] = s.boot->bootstrap(in[i].ct); });
        const cl::TaskGraphStats st =
            cl::runTaskBatch(jobs, cl::ExecMode::Graph, workers);
        if (stats)
            *stats = st;
    }
    return msSince(t0);
}

/** Requests made by one run so far. */
struct Loop
{
    std::vector<double> ms;
    double minBits = 1e9;
    std::uint64_t next = 0;
};

/** Makes and sends one request with fresh inputs, checks every
 *  output. Input generation and checking are outside the timing. */
void
step(const Options &o, const BootSetup &s, bool batch, unsigned workers,
     Loop &loop, Result &r, SpanLog &log,
     cl::TaskGraphStats *stats = nullptr)
{
    const unsigned n = batch ? kBatch : 1;
    std::vector<Input> in;
    std::vector<cl::Ciphertext> out(n);
    SpanLog::Scope req(log, "request");
    {
        SpanLog::Scope sp(log, "input");
        for (unsigned i = 0; i < n; ++i)
            in.push_back(makeInput(s, mixSeed(o.seed, loop.next++)));
    }
    {
        SpanLog::Scope sp(log,
                          batch ? "runtime.run_task_batch" : "ckks.bootstrap",
                          true, &s.ctx->ops());
        loop.ms.push_back(request(s, batch, workers, in, out, stats));
    }
    SpanLog::Scope sp(log, "check");
    for (unsigned i = 0; i < n; ++i) {
        const bool corrupt =
            o.corrupt == "residue" && loop.ms.size() == 1 && i == 0;
        loop.minBits =
            std::min(loop.minBits, checkOutput(s, in[i], out[i], corrupt, r));
    }
}

/** ModRaise, CoeffToSlot and SlotToCoeff timed alone, plus whole
 *  bootstraps under the same threading; EvalMod is derived. */
void
probeStages(const Options &o, const BootSetup &s, unsigned reps,
            SpanLog &log, Result &r)
{
    SpanLog::Scope probe(log, "probe.boot_stages");
    const cl::CkksContext &ctx = *s.ctx;
    const cl::Evaluator eval(ctx);
    const auto mode = cl::LinearTransformMode::HoistedLazy;
    const Input in = makeInput(s, mixSeed(o.seed, 1ull << 40));
    cl::Ciphertext out;
    for (unsigned i = 0; i < reps; ++i) {
        SpanLog::Scope sp(log, "ckks.boot.bootstrap", true, &ctx.ops());
        out = s.boot->bootstrap(in.ct);
    }
    cl::Ciphertext raised;
    for (unsigned i = 0; i < reps; ++i) {
        SpanLog::Scope sp(log, "ckks.boot.mod_raise", true, &ctx.ops());
        raised = eval.modRaise(in.ct, ctx.l());
    }
    cl::Ciphertext t;
    for (unsigned i = 0; i < reps; ++i) {
        SpanLog::Scope sp(log, "ckks.boot.coeff_to_slot", true, &ctx.ops());
        t = s.boot->applyCoeffToSlot(raised, mode);
    }
    // SlotToCoeff runs on the EvalMod output, which sits as many
    // levels above the bootstrap output as the transform consumes.
    const unsigned drop =
        ctx.l() - s.boot->applySlotToCoeff(raised, mode).level();
    cl::Ciphertext w = raised;
    eval.levelDrop(w, out.level() + drop);
    for (unsigned i = 0; i < reps; ++i) {
        SpanLog::Scope sp(log, "ckks.boot.slot_to_coeff", true, &ctx.ops());
        t = s.boot->applySlotToCoeff(w, mode);
    }
    const double boot = median(log.durations("ckks.boot.bootstrap"));
    const double mr = median(log.durations("ckks.boot.mod_raise"));
    const double cts = median(log.durations("ckks.boot.coeff_to_slot"));
    const double stc = median(log.durations("ckks.boot.slot_to_coeff"));
    r.layer("ckks.boot.mod_raise_ms", mr, "ms");
    r.layer("ckks.boot.coeff_to_slot_ms", cts, "ms");
    r.layer("ckks.boot.slot_to_coeff_ms", stc, "ms");
    r.layer("ckks.boot.eval_mod_ms", boot - mr - cts - stc, "ms");
    r.note("ckks.boot.eval_mod_ms is derived: bootstrap (" +
           std::to_string(boot) +
           " ms) minus ModRaise, CoeffToSlot and SlotToCoeff; it "
           "includes the real/imaginary split and recombination");
}

void
tracedRun(const Options &o, const BootSetup &s, bool batch, Result &r)
{
    constexpr unsigned kReqs = 3;
    // Untraced requests first: their median against the traced ones
    // gives the tracing overhead.
    SpanLog off(false);
    Loop plain;
    for (unsigned i = 0; i < kReqs; ++i)
        step(o, s, batch, kThreads, plain, r, off);

    SpanLog log(true);
    Loop traced;
    traced.next = plain.next;
    cl::TaskGraphStats stats;
    {
        SpanLog::Scope run(log, batch ? "boot-batch" : "boot-single");
        for (unsigned i = 0; i < kReqs; ++i)
            step(o, s, batch, kThreads, traced, r, log, &stats);

        const Span *last =
            log.last(batch ? "runtime.run_task_batch" : "ckks.bootstrap");
        counterMetrics(*last, batch ? kBatch : 1, r);

        // boot-batch runs each bootstrap's kernels inline on its
        // worker; probe the layers the same way.
        std::unique_ptr<cl::ThreadPool::WorkerScope> inlineKernels;
        if (batch)
            inlineKernels = std::make_unique<cl::ThreadPool::WorkerScope>();
        probeStages(o, s, 3, log, r);
        probeLayers(*s.ctx, *s.enc, *s.keygen, s.pk, mixSeed(o.seed, 7), 5,
                    log, r);
        inlineKernels.reset();

        // Tower parallelism: one bootstrap on a 1-thread pool vs 4.
        const Input in = makeInput(s, mixSeed(o.seed, 1ull << 41));
        for (unsigned threads : {1u, kThreads}) {
            cl::ThreadPool::setGlobalThreads(threads);
            const std::string name =
                "util.threadpool.t" + std::to_string(threads);
            for (unsigned i = 0; i < 2; ++i) {
                SpanLog::Scope sp(log, name, true, &s.ctx->ops());
                s.boot->bootstrap(in.ct);
            }
        }
        r.layer("util.threadpool.tower_speedup",
                median(log.durations("util.threadpool.t1")) /
                    median(log.durations("util.threadpool.t4")),
                "x");

        if (batch) {
            // Inter-op scaling: the same batch on 1 graph worker.
            Loop one;
            one.next = traced.next;
            for (unsigned i = 0; i < 2; ++i) {
                SpanLog::Scope sp(log, "runtime.batch_t1");
                step(o, s, true, 1, one, r, off);
            }
            const double t4 = median(traced.ms);
            const double work =
                kBatch * median(log.durations("ckks.boot.bootstrap"));
            r.layer("runtime.tasks", stats.tasks, "count");
            r.layer("runtime.edges", stats.edges, "count");
            r.layer("runtime.critical_path", stats.criticalPath, "count");
            r.layer("runtime.steals", stats.steals, "count");
            r.layer("runtime.scaling_t4", median(one.ms) / t4, "x");
            r.layer("runtime.idle_frac", 1 - work / (kThreads * t4),
                    "ratio");
        }
    }
    r.layer("trace.overhead_ms", median(traced.ms) - median(plain.ms), "ms");
    r.note("traced request median " + std::to_string(median(traced.ms)) +
           " ms vs untraced " + std::to_string(median(plain.ms)) + " ms");
    log.finish(o, {"request"}, r);
}

} // namespace

void
runBoot(const Options &o, Result &r, bool batch)
{
    std::unique_ptr<BootSetup> s;
    if (o.trace) {
        s = makeSetup(o.seed);
        tracedRun(o, *s, batch, r);
        return;
    }

    // Set-up takes about 0.7 s and is as noisy as the requests, so
    // it is spread over the run: kMinSetups segments, each a fresh
    // set-up followed by requests until its share of the run is over.
    // setup_s then samples the same stretch of time as the latencies.
    std::vector<double> setupS;
    Loop loop;
    SpanLog off(false);
    const auto start = Clock::now();
    for (unsigned seg = 1; seg <= kMinSetups; ++seg) {
        s.reset();
        const auto t0 = Clock::now();
        s = makeSetup(o.seed);
        setupS.push_back(msSince(t0) / 1e3);
        do {
            step(o, *s, batch, kThreads, loop, r, off);
        } while (msSince(start) < o.seconds * 1e3 * seg / kMinSetups);
    }

    loopMetrics(r, setupS, loop.ms, batch ? kBatch : 1,
                batch ? "batch_latency_ms" : "boot_latency_ms", "boot_per_s");
    r.note(fmtMetric("boot_precision_bits", loop.minBits, "bits") +
           " (floor " + std::to_string(static_cast<int>(kPrecisionFloorBits)) +
           " bits)");
}

} // namespace perfbench
