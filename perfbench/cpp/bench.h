/**
 * @file
 * Shared pieces of the repository benchmark: options, the result that
 * main() prints, wall-clock helpers and the order statistics every
 * workload reports.
 *
 * The benchmark is an outside caller of the library: it times calls
 * into public functions and reads the public counters
 * (kernelCounters(), memTraffic(), polyPoolStats(), OpCounter,
 * TaskGraphStats, ScheduleStats, SimStats). See perfbench/README.md.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Worker threads every workload runs with (pool and graph). */
inline constexpr unsigned kThreads = 4;

/** Least number of set-ups per timed run; setup_s is their median. */
inline constexpr unsigned kMinSetups = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Where the traced run writes its Chrome trace. */
    std::string traceDir = ".bench_build/traces";
    /** Self-test fault: "", "residue" or "verifier". */
    std::string corrupt;
    /** accel-suite: "<benchmark>/<config>=<cycles>" from BENCH_sim.json. */
    std::map<std::string, std::uint64_t> expectedCycles;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * What one run produced. `endToEnd` feeds the untraced result,
 * `layers` the traced one; `report` holds the human-readable lines
 * (the workload's metrics under their full names) printed before the
 * final JSON line.
 */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> layers;
    std::vector<std::string> report;

    void
    check(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
    void e2e(const std::string &n, double v, const std::string &u)
    {
        endToEnd.push_back({n, v, u});
    }
    void layer(const std::string &n, double v, const std::string &u)
    {
        layers.push_back({n, v, u});
    }
    void note(const std::string &line) { report.push_back(line); }
};

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * Times @p setup (which keeps what it builds) at least kMinSetups times
 * and until two seconds have passed, at most 1000 times; a traced run
 * sets up once. @p teardown, untimed, drops the previous set-up first.
 * Returns each duration in seconds.
 */
template <typename Teardown, typename Setup>
std::vector<double>
timeSetups(const Options &o, Teardown &&teardown, Setup &&setup)
{
    std::vector<double> s;
    const auto start = Clock::now();
    do {
        teardown();
        const auto t0 = Clock::now();
        setup();
        s.push_back(msSince(t0) / 1e3);
    } while (!o.trace && s.size() < 1000 &&
             (s.size() < kMinSetups || msSince(start) < 2e3));
    return s;
}

/** Median (mean of the middle pair for even counts). */
double median(std::vector<double> v);

/**
 * Tail latency: the highest percentile that still has at least ten
 * samples beyond it, i.e. the 11th-largest sample, reported with its
 * percentile (n-10)/n. Below 21 samples that percentile would fall
 * under the median, so the median is reported (percentile 50).
 */
struct Tail
{
    double value = 0;
    double percentile = 50;
};
Tail tail(std::vector<double> v);

/** Peak resident set of this process so far, MiB. */
double peakRssMb();

/** "name=value unit" report line. */
std::string fmtMetric(const std::string &name, double v,
                      const std::string &unit);

/**
 * Adds a closed loop's end-to-end metrics: setup_s (median of
 * @p setupS) and latency_ms_p50 over the request times @p ms. Reports
 * them with the tail under @p label, and the throughput, @p perRequest
 * work items per request over the summed request time, under
 * @p rateLabel.
 */
void loopMetrics(Result &r, const std::vector<double> &setupS,
                 const std::vector<double> &ms, double perRequest,
                 const std::string &label, const std::string &rateLabel);

// Workload entry points (one translation unit each).
void runBoot(const Options &o, Result &r, bool batch);
void runHostResnet20(const Options &o, Result &r);
void runAccelSuite(const Options &o, Result &r);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
