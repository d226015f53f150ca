/**
 * @file
 * host-resnet20: HostRunner::run of resnet20() (19,164 ops) projected
 * onto a logN 8 / L 4 host context, on 4 graph workers, closed loop.
 *
 * Every graph run's digest must equal the serial digest for the same
 * seed, computed once per run outside the timing and outside setup.
 * The traced run also replays the program serially, op by op, through
 * the public Evaluator/CkksEncoder/Encryptor calls HostRunner makes;
 * its digest must equal the serial digest too, which proves the replay
 * is the same program, and its per-op spans give per-op-kind self time
 * and the total work.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "layers.h"
#include "runtime/hostrun.h"
#include "util/threadpool.h"
#include "workloads/benchmarks.h"

namespace perfbench {

namespace {

// HostRunner's digest constants and plaintext-id hash
// (runtime/hostrun.cpp); the replay must draw the same inputs to
// reproduce its digest.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t
fnvString(const std::string &s)
{
    std::uint64_t h = kFnvOffset;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
    return h;
}

const char *
kindName(cl::HomOpKind k)
{
    switch (k) {
    case cl::HomOpKind::Input: return "input";
    case cl::HomOpKind::Add: return "add";
    case cl::HomOpKind::AddPlain: return "add_plain";
    case cl::HomOpKind::MulPlain: return "mul_plain";
    case cl::HomOpKind::Mul: return "mul";
    case cl::HomOpKind::Rotate: return "rotate";
    case cl::HomOpKind::Conjugate: return "conjugate";
    case cl::HomOpKind::Rescale: return "rescale";
    case cl::HomOpKind::LevelDrop: return "level_drop";
    case cl::HomOpKind::ModRaise: return "mod_raise";
    case cl::HomOpKind::Output: return "output";
    }
    return "unknown";
}

struct ProgramSetup
{
    std::unique_ptr<cl::CkksContext> ctx;
    std::unique_ptr<cl::CkksEncoder> enc;
    std::unique_ptr<cl::KeyGenerator> keygen;
    std::unique_ptr<cl::HostRunner> runner;
};

cl::CkksParams
hostParams()
{
    cl::CkksParams p;
    p.logN = 8;
    p.l = 4;
    p.alpha = 4;
    return p;
}

std::unique_ptr<ProgramSetup>
makeSetup(const cl::HomProgram &prog)
{
    auto s = std::make_unique<ProgramSetup>();
    s->ctx = std::make_unique<cl::CkksContext>(hostParams());
    s->enc = std::make_unique<cl::CkksEncoder>(*s->ctx);
    s->keygen = std::make_unique<cl::KeyGenerator>(*s->ctx);
    s->runner = std::make_unique<cl::HostRunner>(*s->ctx, *s->enc,
                                                 *s->keygen, prog);
    return s;
}

/** Digest over the outputs as returned, so a corrupted output word
 *  shows even though HostRunner digested the original. */
std::uint64_t
outputDigest(const cl::HostRunResult &res)
{
    std::uint64_t h = kFnvOffset;
    for (const cl::Ciphertext &ct : res.outputs)
        h = cl::digestCiphertext(h, ct);
    return h;
}

/**
 * Serial replay of HostRunner::run through public calls, one span per
 * op ("op.<kind>"). Keys come from a fresh KeyGenerator asked for the
 * same material in the same order as HostRunner's constructor, which
 * reproduces them exactly (key generation is seeded by the context).
 */
std::uint64_t
replay(const cl::CkksContext &ctx, const cl::CkksEncoder &enc,
       const cl::HomProgram &prog, std::uint64_t seed, SpanLog &log)
{
    SpanLog::Scope whole(log, "replay");
    const std::size_t slots = ctx.slots();
    const long lslots = static_cast<long>(slots);
    const double scale = ctx.params().scale();
    auto eff = [&](unsigned level) {
        return std::max(1u, std::min(level, ctx.l()));
    };

    cl::KeyGenerator keygen(ctx);
    cl::PublicKey pk;
    cl::SwitchKey relin;
    cl::GaloisKeys galois;
    {
        SpanLog::Scope sp(log, "replay.keys");
        std::set<int> steps;
        bool conjugate = false;
        for (const cl::HomOp &op : prog.ops) {
            if (op.kind == cl::HomOpKind::Rotate) {
                const int s = static_cast<int>(
                    ((op.rotateBy % lslots) + lslots) % lslots);
                if (s != 0)
                    steps.insert(s);
            } else if (op.kind == cl::HomOpKind::Conjugate) {
                conjugate = true;
            }
        }
        pk = keygen.genPublicKey();
        relin = keygen.genRelinKey();
        galois = keygen.genRotationKeys(
            std::vector<int>(steps.begin(), steps.end()), conjugate);
    }

    const cl::Evaluator eval(ctx);
    std::unordered_map<std::string, cl::RnsPoly> plains;
    auto plainKey = [&](const cl::HomOp &op) {
        return op.plainId + "@" + std::to_string(eff(op.level));
    };
    {
        SpanLog::Scope sp(log, "replay.encode_plains");
        for (const cl::HomOp &op : prog.ops) {
            if (op.kind != cl::HomOpKind::AddPlain &&
                op.kind != cl::HomOpKind::MulPlain)
                continue;
            const std::string key = plainKey(op);
            if (plains.count(key))
                continue;
            const auto vals =
                randomSlots(mixSeed(seed, fnvString(op.plainId)), slots, 1.0);
            plains.emplace(key, enc.encode(vals, scale, eff(op.level)));
        }
    }

    std::vector<cl::Ciphertext> cts(prog.ops.size());
    auto dropTo = [&](cl::Ciphertext &ct, unsigned target) {
        while (ct.level() > target)
            eval.rescale(ct);
    };
    for (std::uint32_t i = 0; i < prog.ops.size(); ++i) {
        const cl::HomOp &op = prog.ops[i];
        SpanLog::Scope sp(log, std::string("op.") + kindName(op.kind), true,
                          &ctx.ops());
        const unsigned out = eff(op.outLevel);
        cl::Ciphertext r;
        switch (op.kind) {
        case cl::HomOpKind::Input: {
            const std::uint64_t vseed = mixSeed(seed, op.id);
            const cl::RnsPoly pt =
                enc.encode(randomSlots(vseed, slots, 1.0), scale, out);
            cl::Encryptor encryptor(ctx, pk, vseed ^ 0x656e63ULL);
            r = encryptor.encrypt(pt, scale);
            break;
        }
        case cl::HomOpKind::Add:
            r = eval.add(cts[op.args[0]], cts[op.args[1]]);
            break;
        case cl::HomOpKind::AddPlain:
            r = eval.addPlain(cts[op.args[0]], plains.at(plainKey(op)));
            break;
        case cl::HomOpKind::MulPlain:
            r = eval.mulPlain(cts[op.args[0]], plains.at(plainKey(op)), scale);
            dropTo(r, out);
            break;
        case cl::HomOpKind::Mul:
            r = eval.multiply(cts[op.args[0]], cts[op.args[1]], relin);
            dropTo(r, out);
            break;
        case cl::HomOpKind::Rotate:
            r = eval.rotate(cts[op.args[0]],
                            static_cast<int>(op.rotateBy % lslots), galois);
            break;
        case cl::HomOpKind::Conjugate:
            r = eval.conjugate(cts[op.args[0]], galois);
            break;
        case cl::HomOpKind::Rescale:
            r = cts[op.args[0]];
            dropTo(r, out);
            break;
        case cl::HomOpKind::LevelDrop:
            r = cts[op.args[0]];
            if (out < r.level())
                eval.levelDrop(r, out);
            break;
        case cl::HomOpKind::ModRaise:
            if (out > cts[op.args[0]].level())
                r = eval.modRaise(cts[op.args[0]], out);
            else
                r = cts[op.args[0]];
            break;
        case cl::HomOpKind::Output:
            r = cts[op.args[0]];
            break;
        }
        r.scale = scale;
        cts[i] = std::move(r);
    }

    SpanLog::Scope sp(log, "replay.digest");
    std::uint64_t h = kFnvOffset;
    for (std::uint32_t i = 0; i < prog.ops.size(); ++i)
        if (prog.ops[i].kind == cl::HomOpKind::Output)
            h = cl::digestCiphertext(h, cts[i]);
    return h;
}

/** One graph run on @p threads workers, checked against @p want. */
double
runOnce(const Options &o, const ProgramSetup &s, const cl::HomProgram &prog,
        unsigned threads, std::uint64_t want, bool corrupt, Result &r,
        SpanLog &log, cl::TaskGraphStats *stats = nullptr)
{
    SpanLog::Scope req(log, "request");
    const cl::HostRunOptions opts{cl::ExecMode::Graph, threads, o.seed};
    cl::HostRunResult res;
    const auto t0 = Clock::now();
    {
        SpanLog::Scope sp(log, "runtime.host_runner.run", true, &s.ctx->ops());
        res = s.runner->run(prog, opts);
    }
    const double ms = msSince(t0);
    SpanLog::Scope sp(log, "check");
    if (corrupt)
        res.outputs.at(0).c1.residue(0)[0] ^= 1;
    r.check(res.digest == want && outputDigest(res) == want);
    if (stats)
        *stats = res.stats;
    return ms;
}

void
tracedRun(const Options &o, const ProgramSetup &s, const cl::HomProgram &prog,
          std::uint64_t want, Result &r)
{
    constexpr unsigned kReqs = 2;
    SpanLog off(false);
    std::vector<double> plain;
    for (unsigned i = 0; i < kReqs; ++i)
        plain.push_back(runOnce(o, s, prog, kThreads, want, false, r, off));

    SpanLog log(true);
    std::vector<double> t4, t1;
    cl::TaskGraphStats stats;
    {
        SpanLog::Scope run(log, "host-resnet20");
        for (unsigned i = 0; i < kReqs; ++i)
            t4.push_back(runOnce(o, s, prog, kThreads, want, false, r, log,
                                 &stats));
        counterMetrics(*log.last("runtime.host_runner.run"), 1, r);
        for (unsigned i = 0; i < kReqs; ++i)
            t1.push_back(runOnce(o, s, prog, 1, want, false, r, off));

        // Graph workers run kernels inline; replay and probe likewise.
        cl::ThreadPool::WorkerScope inlineKernels;
        const std::uint64_t got = replay(*s.ctx, *s.enc, prog, o.seed, log);
        r.check(got == want);
        r.note(std::string("replay digest ") +
               (got == want ? "equals" : "DIFFERS FROM") +
               " the serial HostRunner digest");
        probeLayers(*s.ctx, *s.enc, *s.keygen,
                    s.keygen->genPublicKey(), o.seed, 5, log, r);
    }

    // Per-op-kind self time from the replay's leaf spans.
    std::map<std::string, std::pair<double, std::size_t>> kinds;
    for (int k = 0; k <= static_cast<int>(cl::HomOpKind::Output); ++k)
        kinds[kindName(static_cast<cl::HomOpKind>(k))] = {0, 0};
    double work = 0;
    for (const Span &sp : log.spans()) {
        if (sp.name.rfind("op.", 0) != 0)
            continue;
        auto &k = kinds[sp.name.substr(3)];
        k.first += sp.ms();
        ++k.second;
        work += sp.ms();
    }
    for (const auto &[kind, v] : kinds) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "replay self time %-10s %10.3f ms over %zu ops",
                      kind.c_str(), v.first, v.second);
        r.note(line);
        r.layer("ckks.op_self_ms." + kind, v.first, "ms");
    }
    const double wall = median(t4);
    r.layer("runtime.work_ms", work, "ms");
    r.layer("runtime.tasks", stats.tasks, "count");
    r.layer("runtime.edges", stats.edges, "count");
    r.layer("runtime.critical_path", stats.criticalPath, "count");
    r.layer("runtime.steals", stats.steals, "count");
    r.layer("runtime.scaling_t4", median(t1) / wall, "x");
    r.layer("runtime.idle_frac", 1 - work / (kThreads * wall), "ratio");
    r.layer("trace.overhead_ms", wall - median(plain), "ms");
    r.note("traced program median " + std::to_string(wall) +
           " ms vs untraced " + std::to_string(median(plain)) + " ms");
    log.finish(o, {"request", "replay"}, r);
}

} // namespace

void
runHostResnet20(const Options &o, Result &r)
{
    const cl::HomProgram prog = cl::resnet20();
    std::unique_ptr<ProgramSetup> s;
    const std::vector<double> setupS = timeSetups(
        o, [&] { s.reset(); },
        [&] { s = makeSetup(prog); });
    // The serial reference: outside the timed loop and outside setup_s.
    const std::uint64_t want =
        s->runner->run(prog, {cl::ExecMode::Serial, 1, o.seed}).digest;
    if (o.trace) {
        tracedRun(o, *s, prog, want, r);
        return;
    }

    SpanLog off(false);
    std::vector<double> ms;
    const auto start = Clock::now();
    do {
        ms.push_back(runOnce(o, *s, prog, kThreads, want,
                             o.corrupt == "residue" && ms.empty(), r, off));
    } while (msSince(start) < o.seconds * 1e3);

    loopMetrics(r, setupS, ms, 1, "program_ms", "programs_per_s");
}

} // namespace perfbench
