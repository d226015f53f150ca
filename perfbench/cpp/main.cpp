/**
 * @file
 * perfbench: the measuring binary of the repository benchmark.
 *
 *   perfbench --workload <boot-single|boot-batch|host-resnet20|accel-suite>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-dir <dir>]
 *             [--corrupt residue|verifier] [--expect <bench>/<cfg>=<cycles>]...
 *
 * Prints report lines starting with '#' and, last, one JSON object
 * with the keys correct, attempted, failed and metrics. Normally run
 * through perfbench/run.py, which builds this binary, pins the CL_*
 * environment and checks the output against BENCHMARK.json.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.h"
#include "rns/simd/kernels.h"
#include "util/threadpool.h"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Tail
tail(std::vector<double> v)
{
    Tail t;
    const std::size_t n = v.size();
    if (n < 21) {
        t.value = median(std::move(v));
        return t;
    }
    std::sort(v.begin(), v.end());
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n);
    return t;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
fmtMetric(const std::string &name, double v, const std::string &unit)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s = %.6g %s", name.c_str(), v,
                  unit.c_str());
    return buf;
}

void
loopMetrics(Result &r, const std::vector<double> &setupS,
            const std::vector<double> &ms, double perRequest,
            const std::string &label, const std::string &rateLabel)
{
    const double setup = median(setupS);
    r.e2e("setup_s", setup, "s");
    char buf[256];
    std::snprintf(buf, sizeof buf, " (median of %zu set-ups, range %.6g to "
                  "%.6g s)", setupS.size(),
                  *std::min_element(setupS.begin(), setupS.end()),
                  *std::max_element(setupS.begin(), setupS.end()));
    r.note(fmtMetric("setup_s", setup, "s") + buf);

    const double p50 = median(ms);
    const Tail t = tail(ms);
    r.e2e("latency_ms_p50", p50, "ms");
    r.note(fmtMetric(label + "_p50", p50, "ms"));
    std::snprintf(buf, sizeof buf,
                  "%s_tail = %.6g ms (p%.1f, n=%zu samples, range %.6g to "
                  "%.6g ms)",
                  label.c_str(), t.value, t.percentile, ms.size(),
                  *std::min_element(ms.begin(), ms.end()),
                  *std::max_element(ms.begin(), ms.end()));
    r.note(buf);

    double busyS = 0;
    for (double v : ms)
        busyS += v / 1e3;
    r.note(fmtMetric(rateLabel, ms.size() * perRequest / busyS, "1/s"));
}

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<boot-single|boot-batch|host-resnet20|accel-suite> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-dir <dir>] [--corrupt residue|verifier] "
                 "[--expect <bench>/<cfg>=<cycles>]...\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), nullptr);
        } else if (a == "--trace") {
            o.trace = v == "1";
        } else if (a == "--trace-dir") {
            o.traceDir = v;
        } else if (a == "--corrupt") {
            o.corrupt = v;
        } else if (a == "--expect") {
            const auto eq = v.find('=');
            if (eq == std::string::npos)
                usage("--expect wants <bench>/<cfg>=<cycles>");
            o.expectedCycles[v.substr(0, eq)] =
                std::strtoull(v.c_str() + eq + 1, nullptr, 10);
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!o.corrupt.empty() && o.corrupt != "residue" &&
        o.corrupt != "verifier")
        usage("--corrupt wants residue or verifier");
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
envOr(const char *name)
{
    const char *v = std::getenv(name);
    return v ? v : "(unset)";
}

void
printJson(const Result &r, bool trace)
{
    const std::vector<Metric> &ms = trace ? r.layers : r.endToEnd;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.failed == 0 && r.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const double v = std::isfinite(ms[i].value) ? ms[i].value : 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), v,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options o = parseArgs(argc, argv);

#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to report from a build "
                         "with assertions enabled (NDEBUG unset)\n");
    return 3;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "perfbench: refusing to report from a %s build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    cl::ThreadPool::setGlobalThreads(kThreads);

    Result r;
    if (o.workload == "boot-single")
        runBoot(o, r, false);
    else if (o.workload == "boot-batch")
        runBoot(o, r, true);
    else if (o.workload == "host-resnet20")
        runHostResnet20(o, r);
    else if (o.workload == "accel-suite")
        runAccelSuite(o, r);
    else
        usage(("unknown workload " + o.workload).c_str());

    const double rss = peakRssMb();
    const double failFrac =
        r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0;
    r.e2e("peak_rss_mb", rss, "MiB");
    r.note(fmtMetric("peak_rss_mb", rss, "MiB"));
    r.note(fmtMetric("fail_frac", failFrac, "ratio") + " (" +
           std::to_string(r.failed) + " of " +
           std::to_string(r.attempted) + " checks failed)");

    std::printf("# workload %s, seed %llu, %s run\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed),
                o.trace ? "traced" : "timed");
    std::printf("# env: nproc=%u cpu=\"%s\" simd=%s compiler=\"%s\" "
                "build=%s threads=%u CL_THREADS=%s CL_EXEC=%s "
                "CL_SIMD=%s CL_FUSE=%s CL_FUSE_TILE=%s CL_POOL=%s "
                "CL_POOL_MB=%s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                cl::simdBackendName(cl::activeSimdBackend()),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, kThreads,
                envOr("CL_THREADS").c_str(), envOr("CL_EXEC").c_str(),
                envOr("CL_SIMD").c_str(), envOr("CL_FUSE").c_str(),
                envOr("CL_FUSE_TILE").c_str(), envOr("CL_POOL").c_str(),
                envOr("CL_POOL_MB").c_str());
    for (const std::string &line : r.report)
        std::printf("# %s\n", line.c_str());
    printJson(r, o.trace);
    return 0;
}
