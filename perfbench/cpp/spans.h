/**
 * @file
 * In-memory spans for the traced run.
 *
 * A span is recorded around each public library call the benchmark
 * makes: name, start, end, parent, and — when nothing else runs in
 * the process during the span — the deltas of the process-global
 * counters. Spans are opened only from the benchmark's main thread,
 * so they nest strictly and a child always lies inside its parent.
 * They are written once, as Chrome trace_event JSON, when the run
 * ends.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "ckks/context.h"
#include "poly/polypool.h"
#include "util/instrument.h"

namespace perfbench {

/** Snapshot of every process-global counter a span can attribute. */
struct Counters
{
    cl::KernelCounts kernels;
    cl::MemTraffic mem;
    std::uint64_t poolAllocs = 0;
    std::uint64_t poolHits = 0;
    std::uint64_t poolMisses = 0;
    std::uint64_t decomposes = 0;
    std::uint64_t innerProducts = 0;
    std::uint64_t modDowns = 0;

    /** Reads the counters now; @p ops may be null (no OpCounter). */
    static Counters now(const cl::OpCounter *ops);
    Counters operator-(const Counters &o) const;
};

struct Span
{
    std::string name;
    double startUs = 0;
    double endUs = 0;
    int parent = -1;
    bool hasDeltas = false;
    Counters delta;

    double ms() const { return (endUs - startUs) / 1e3; }
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * RAII span. Pass @p ops (the context's OpCounter, or a null
     * pointer for none) together with @p exclusive = true only when
     * no other work runs during the span; otherwise counter deltas
     * would include other spans' work and are not recorded.
     */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, bool exclusive = false,
              const cl::OpCounter *ops = nullptr);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int id_ = -1;
        bool exclusive_;
        const cl::OpCounter *ops_;
        Counters before_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ms) of every span called @p name, in order. */
    std::vector<double> durations(const std::string &name) const;
    /** The last span called @p name, or null. */
    const Span *last(const std::string &name) const;

    /**
     * Ends a traced run: records the integrity check (see check) and
     * the trace write as checks of @p r, and writes the trace to
     * <traceDir>/<workload>-seed<seed>.json.
     */
    void finish(const Options &o, const std::vector<std::string> &accounted,
                Result &r) const;

  private:
    /**
     * Integrity of the recorded tree: every child lies inside its
     * parent, no self time is negative, and for each span named in
     * @p accounted its children cover at least (1 - tol) of it.
     * Returns the number of violations; details go to @p r's report.
     */
    std::size_t check(const std::vector<std::string> &accounted,
                      double tol, Result &r) const;

    /** Writes the spans as Chrome trace_event JSON. */
    bool writeChrome(const std::string &path) const;
    double nowUs() const;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
