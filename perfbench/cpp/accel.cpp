/**
 * @file
 * accel-suite: the accelerator-model user's path. The 8 paper programs
 * at 80-bit security (benchmarkByName, in set-up), then for each of
 * craterlake and f1plus: Lowering (no scheduling), scheduleProgram
 * (list), Simulator::run, and verification — a recorded simulation
 * checked by ScheduleVerifier, the body of verifySchedule. One request
 * is one pass over all 16 entries. No host CKKS runs.
 *
 * Checks: every schedule verifies with zero violations, the recorded
 * simulation matches the plain one, and its cycles equal the
 * `schedule: list` entry of the checked-in BENCH_sim.json (passed in
 * with --expect by run.py).
 */

#include <cmath>
#include <cstdio>

#include "compiler/lower.h"
#include "layers.h"
#include "sim/simulator.h"
#include "verify/verifier.h"
#include "workloads/benchmarks.h"

namespace perfbench {

namespace {

const char *const kConfigs[] = {"craterlake", "f1plus"};

struct Entry
{
    std::string bench;
    std::string config;
    std::size_t instructions = 0;
    cl::ScheduleStats sched;
    cl::SimStats stats;
    std::size_t violations = 0;
    double lowerMs = 0, scheduleMs = 0, simMs = 0, verifyMs = 0;
};

using Programs = std::vector<std::pair<std::string, cl::HomProgram>>;

Programs
generate(SpanLog &log)
{
    Programs ps;
    for (const std::string &name : cl::benchmarkNames()) {
        SpanLog::Scope sp(log, "workloads.gen");
        ps.emplace_back(
            name, cl::benchmarkByName(name, cl::SecurityConfig::bits80()));
    }
    return ps;
}

/** One entry: lower, schedule, simulate, verify; records its checks.
 *  With @p corrupt, one verifier input (an instruction's start time)
 *  is shifted before verification. */
Entry
runEntry(const Options &o, const std::string &bench,
         const cl::HomProgram &hp, const char *config, bool corrupt,
         SpanLog &log, Result &r)
{
    Entry e;
    e.bench = bench;
    e.config = config;
    const cl::ChipConfig cfg = cl::ChipConfig::byName(config);
    SpanLog::Scope entry(log, "entry");
    auto t0 = Clock::now();
    cl::Program prog;
    {
        SpanLog::Scope sp(log, "compiler.lower");
        prog = cl::Lowering(cfg, cl::ScheduleMode::None).lower(hp);
    }
    e.lowerMs = msSince(t0);
    t0 = Clock::now();
    {
        SpanLog::Scope sp(log, "compiler.schedule");
        prog = cl::scheduleProgram(prog, cfg, cl::ScheduleMode::List,
                                   &e.sched);
    }
    e.scheduleMs = msSince(t0);
    e.instructions = prog.size();
    t0 = Clock::now();
    {
        SpanLog::Scope sp(log, "sim.run");
        e.stats = cl::Simulator(cfg).run(prog);
    }
    e.simMs = msSince(t0);
    t0 = Clock::now();
    cl::SimStats recorded;
    {
        SpanLog::Scope sp(log, "verify");
        cl::TraceRecorder rec;
        recorded = cl::Simulator(cfg).run(prog, &rec);
        std::vector<cl::InstTrace> insts = rec.insts();
        if (corrupt && !insts.empty())
            ++insts.back().start;
        e.violations = cl::ScheduleVerifier(cfg, prog)
                           .verify(insts, rec.residency(), recorded)
                           .total();
    }
    e.verifyMs = msSince(t0);

    const auto want = o.expectedCycles.find(bench + "/" + config);
    const bool known = want != o.expectedCycles.end();
    r.check(e.violations == 0 && recorded == e.stats && known &&
            e.stats.cycles == want->second);
    return e;
}

/** One request: all programs on both configurations. */
std::vector<Entry>
pass(const Options &o, const Programs &ps, bool corrupt, SpanLog &log,
     Result &r)
{
    std::vector<Entry> out;
    for (const auto &[name, hp] : ps)
        for (const char *config : kConfigs) {
            out.push_back(runEntry(o, name, hp, config, corrupt, log, r));
            corrupt = false;
        }
    return out;
}

/** Geometric mean of simulated ms per program for @p config, from
 *  the simulator or from the checked-in cycles. */
double
simMsGeomean(const std::vector<Entry> &es, const std::string &config,
             const Options &o, bool expected)
{
    const cl::ChipConfig cfg = cl::ChipConfig::byName(config);
    double logSum = 0;
    unsigned n = 0;
    for (const Entry &e : es) {
        if (e.config != config)
            continue;
        const auto it = o.expectedCycles.find(e.bench + "/" + config);
        const std::uint64_t cycles =
            expected ? (it == o.expectedCycles.end() ? 0 : it->second)
                     : e.stats.cycles;
        logSum += std::log(static_cast<double>(cycles) /
                           (cfg.freqGhz * 1e6));
        ++n;
    }
    return n ? std::exp(logSum / n) : 0;
}

void
suiteNotes(const Options &o, const std::vector<Entry> &es, Result &r)
{
    for (const char *config : kConfigs) {
        const double got = simMsGeomean(es, config, o, false);
        const double want = simMsGeomean(es, config, o, true);
        r.check(got == want);
        char line[200];
        std::snprintf(line, sizeof line,
                      "sim_ms_geomean_%s = %.9g ms simulated (BENCH_sim.json "
                      "list entries give %.9g: %s)",
                      config, got, want, got == want ? "equal" : "DIFFERENT");
        r.note(line);
    }
}

void
layerMetrics(const std::vector<Entry> &es, double genMs, Result &r)
{
    r.layer("workloads.gen_ms", genMs, "ms");
    double simMs = 0, verifyMs = 0, insts = 0, violations = 0;
    for (const Entry &e : es) {
        simMs += e.simMs;
        verifyMs += e.verifyMs;
        insts += e.instructions;
        violations += e.violations;
        r.layer("sim.cycles." + e.bench + "." + e.config, e.stats.cycles,
                "cycles");
    }
    r.layer("sim.run_ms", simMs, "ms");
    r.layer("sim.insts_per_host_s", insts / (simMs / 1e3), "1/s");
    r.layer("verify.ms", verifyMs, "ms");
    r.layer("verify.violations", violations, "count");
    for (const std::string config : kConfigs) {
        const cl::ChipConfig cfg = cl::ChipConfig::byName(config);
        double lower = 0, sched = 0, n = 0, moved = 0, logRatio = 0,
               cycles = 0, fu = 0, mem = 0;
        cl::SimStats sum;
        unsigned progs = 0;
        for (const Entry &e : es) {
            if (e.config != config)
                continue;
            ++progs;
            lower += e.lowerMs;
            sched += e.scheduleMs;
            n += e.instructions;
            moved += e.sched.moved;
            logRatio += std::log(static_cast<double>(e.stats.cycles) /
                                 e.sched.criticalPathCycles);
            const double c = e.stats.cycles;
            cycles += c;
            fu += e.stats.fuUtilization(cfg) * c;
            mem += e.stats.memUtilization() * c;
            sum.kshLoadWords += e.stats.kshLoadWords;
            sum.inputLoadWords += e.stats.inputLoadWords;
            sum.plainLoadWords += e.stats.plainLoadWords;
            sum.intermLoadWords += e.stats.intermLoadWords;
            sum.intermStoreWords += e.stats.intermStoreWords;
            sum.outputStoreWords += e.stats.outputStoreWords;
            sum.rfAccessWords += e.stats.rfAccessWords;
            sum.networkWords += e.stats.networkWords;
        }
        const std::string c = "." + config;
        r.layer("compiler.lower_ms" + c, lower, "ms");
        r.layer("compiler.schedule_ms" + c, sched, "ms");
        r.layer("compiler.instructions" + c, n, "count");
        r.layer("compiler.schedule.moved" + c, moved, "count");
        r.layer("compiler.schedule.cycles_over_critical_path" + c,
                std::exp(logRatio / progs), "ratio");
        r.layer("sim.fu_util" + c, fu / cycles, "ratio");
        r.layer("sim.mem_util" + c, mem / cycles, "ratio");
        r.layer("sim.traffic.ksh_words" + c, sum.kshLoadWords, "words");
        r.layer("sim.traffic.input_words" + c, sum.inputLoadWords, "words");
        r.layer("sim.traffic.plain_words" + c, sum.plainLoadWords, "words");
        r.layer("sim.traffic.interm_load_words" + c, sum.intermLoadWords,
                "words");
        r.layer("sim.traffic.interm_store_words" + c, sum.intermStoreWords,
                "words");
        r.layer("sim.traffic.output_words" + c, sum.outputStoreWords,
                "words");
        r.layer("sim.rf_access_words" + c, sum.rfAccessWords, "words");
        r.layer("sim.network_words" + c, sum.networkWords, "words");
    }
}

/** One untraced pass, then program generation and a pass traced. */
void
tracedRun(const Options &o, const Programs &ps, Result &r)
{
    SpanLog off(false);
    const auto t0 = Clock::now();
    pass(o, ps, false, off, r);
    const double plainMs = msSince(t0);
    SpanLog log(true);
    std::vector<Entry> es;
    double tracedMs = 0;
    {
        SpanLog::Scope run(log, "accel-suite");
        generate(log);
        const auto t1 = Clock::now();
        es = pass(o, ps, false, log, r);
        tracedMs = msSince(t1);
    }
    double genMs = 0;
    for (double ms : log.durations("workloads.gen"))
        genMs += ms;
    layerMetrics(es, genMs, r);
    suiteNotes(o, es, r);
    r.layer("trace.overhead_ms", tracedMs - plainMs, "ms");
    log.finish(o, {"entry"}, r);
}

} // namespace

void
runAccelSuite(const Options &o, Result &r)
{
    SpanLog off(false);
    Programs ps;
    const std::vector<double> setupS = timeSetups(
        o, [&] { ps.clear(); },
        [&] { ps = generate(off); });
    if (o.trace) {
        tracedRun(o, ps, r);
        return;
    }

    std::vector<double> passMs;
    std::vector<Entry> last;
    const auto start = Clock::now();
    do {
        const auto t0 = Clock::now();
        last = pass(o, ps, o.corrupt == "verifier" && passMs.empty(), off, r);
        passMs.push_back(msSince(t0));
    } while (msSince(start) < o.seconds * 1e3);

    loopMetrics(r, setupS, passMs, last.size(), "compile_pass_ms",
                "entries_per_s");
    r.note(fmtMetric("compile_s", median(passMs) / 1e3, "s") +
           " (lower + schedule + simulate + verify, all " +
           std::to_string(last.size()) + " entries)");
    suiteNotes(o, last, r);
}

} // namespace perfbench
