#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

Counters
Counters::now(const cl::OpCounter *ops)
{
    Counters c;
    c.kernels = cl::kernelCounters().snapshot();
    c.mem = cl::memTraffic().snapshot();
    const cl::PolyPoolStats p = cl::polyPoolStats();
    c.poolAllocs = p.allocs;
    c.poolHits = p.hits;
    c.poolMisses = p.misses;
    if (ops) {
        c.decomposes = ops->decomposes;
        c.innerProducts = ops->innerProducts;
        c.modDowns = ops->modDowns;
    }
    return c;
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters d;
    d.kernels = kernels - o.kernels;
    d.mem = mem - o.mem;
    d.poolAllocs = poolAllocs - o.poolAllocs;
    d.poolHits = poolHits - o.poolHits;
    d.poolMisses = poolMisses - o.poolMisses;
    d.decomposes = decomposes - o.decomposes;
    d.innerProducts = innerProducts - o.innerProducts;
    d.modDowns = modDowns - o.modDowns;
    return d;
}

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     origin_)
        .count();
}

SpanLog::Scope::Scope(SpanLog &log, std::string name, bool exclusive,
                      const cl::OpCounter *ops)
    : log_(log), exclusive_(exclusive), ops_(ops)
{
    if (!log_.enabled_)
        return;
    if (exclusive_)
        before_ = Counters::now(ops_);
    Span s;
    s.name = std::move(name);
    s.parent = log_.open_.empty() ? -1 : log_.open_.back();
    id_ = static_cast<int>(log_.spans_.size());
    log_.spans_.push_back(std::move(s));
    log_.open_.push_back(id_);
    log_.spans_[id_].startUs = log_.nowUs();
}

SpanLog::Scope::~Scope()
{
    if (id_ < 0)
        return;
    Span &s = log_.spans_[id_];
    s.endUs = log_.nowUs();
    if (exclusive_) {
        s.delta = Counters::now(ops_) - before_;
        s.hasDeltas = true;
    }
    log_.open_.pop_back();
}

std::vector<double>
SpanLog::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.ms());
    return out;
}

const Span *
SpanLog::last(const std::string &name) const
{
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
        if (it->name == name)
            return &*it;
    return nullptr;
}

std::size_t
SpanLog::check(const std::vector<std::string> &accounted, double tol,
               Result &r) const
{
    std::vector<double> childMs(spans_.size(), 0);
    std::size_t bad = 0;
    for (const Span &s : spans_) {
        if (s.parent < 0)
            continue;
        const Span &p = spans_[s.parent];
        childMs[s.parent] += s.ms();
        if (s.startUs < p.startUs || s.endUs > p.endUs) {
            ++bad;
            r.note("trace: span " + s.name + " leaves its parent " +
                   p.name);
        }
    }
    double worst = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double self = s.ms() - childMs[i];
        // Sibling spans are sequential on one thread, so their sum
        // fits the parent up to clock granularity.
        if (self < -1e-3) {
            ++bad;
            r.note("trace: negative self time in " + s.name);
        }
        if (std::find(accounted.begin(), accounted.end(), s.name) ==
                accounted.end() ||
            s.ms() <= 0)
            continue;
        const double gap = self / s.ms();
        worst = std::max(worst, gap);
        if (gap > tol) {
            ++bad;
            r.note("trace: children of " + s.name + " leave " +
                   std::to_string(gap * 100) + "% unaccounted");
        }
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "trace: %zu spans, %zu integrity violations, worst "
                  "unaccounted share %.4f (tolerance %.2f)",
                  spans_.size(), bad, worst, tol);
    r.note(line);
    return bad;
}

void
SpanLog::finish(const Options &o, const std::vector<std::string> &accounted,
                Result &r) const
{
    r.check(check(accounted, 0.10, r) == 0);
    const std::string path = o.traceDir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    r.check(writeChrome(path));
    r.note("trace written to " + path);
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"perfbench\"}}";
    char num[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\""
           << jsonEscape(s.name) << "\",";
        std::snprintf(num, sizeof num, "\"ts\":%.3f,\"dur\":%.3f",
                      s.startUs, s.endUs - s.startUs);
        os << num << ",\"args\":{\"id\":" << i
           << ",\"parent\":" << s.parent;
        if (s.hasDeltas) {
            const Counters &d = s.delta;
            os << ",\"ntts\":" << d.kernels.ntts
               << ",\"mults\":" << d.kernels.mults
               << ",\"adds\":" << d.kernels.adds
               << ",\"automorphisms\":" << d.kernels.automorphisms
               << ",\"mem_passes\":" << d.mem.passes
               << ",\"mem_bytes\":" << d.mem.bytes
               << ",\"pool_allocs\":" << d.poolAllocs
               << ",\"pool_hits\":" << d.poolHits
               << ",\"pool_misses\":" << d.poolMisses
               << ",\"decomposes\":" << d.decomposes
               << ",\"inner_products\":" << d.innerProducts
               << ",\"mod_downs\":" << d.modDowns;
        }
        os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
