#include "verifier.h"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>

#include "sim/simulator.h"

namespace cl {

const char *
violationKindName(ViolationKind k)
{
    switch (k) {
      case ViolationKind::StructureMismatch:
        return "structure-mismatch";
      case ViolationKind::DurationMismatch:
        return "duration-mismatch";
      case ViolationKind::IssueOrder:
        return "issue-order";
      case ViolationKind::DependencyOrder:
        return "dependency-order";
      case ViolationKind::ReloadBeforeStore:
        return "reload-before-store";
      case ViolationKind::FuOversubscribed:
        return "fu-oversubscribed";
      case ViolationKind::FuAbsent:
        return "fu-absent";
      case ViolationKind::RfPortsOversubscribed:
        return "rf-ports-oversubscribed";
      case ViolationKind::NetworkOverlap:
        return "network-overlap";
      case ViolationKind::NetworkBandwidth:
        return "network-bandwidth";
      case ViolationKind::MemChannelOverlap:
        return "mem-channel-overlap";
      case ViolationKind::MemBandwidth:
        return "mem-bandwidth";
      case ViolationKind::RfCapacityExceeded:
        return "rf-capacity-exceeded";
      case ViolationKind::ResidencyConservation:
        return "residency-conservation";
      case ViolationKind::ConsumerOrder:
        return "consumer-order";
      case ViolationKind::AccountingMismatch:
        return "accounting-mismatch";
      default:
        CL_PANIC("bad violation kind");
    }
}

std::size_t
VerifyReport::total() const
{
    std::size_t n = 0;
    for (std::size_t c : kindCounts)
        n += c;
    return n;
}

std::string
VerifyReport::summary(std::size_t max_messages) const
{
    std::ostringstream os;
    if (ok()) {
        os << "OK: " << instsChecked << " instructions, "
           << eventsChecked << " residency events, 0 violations";
        return os.str();
    }
    os << total() << " violation(s):";
    for (std::size_t k = 0; k < numViolationKinds; ++k) {
        if (kindCounts[k] > 0)
            os << " "
               << violationKindName(static_cast<ViolationKind>(k))
               << "=" << kindCounts[k];
    }
    os << "\n";
    for (std::size_t i = 0;
         i < violations.size() && i < max_messages; ++i) {
        const Violation &v = violations[i];
        os << "  [" << violationKindName(v.kind) << "]";
        if (v.instId >= 0)
            os << " inst " << v.instId;
        if (v.valueId >= 0)
            os << " value " << v.valueId;
        os << ": " << v.message << "\n";
    }
    if (total() > max_messages)
        os << "  ... " << (total() - max_messages)
           << " more\n";
    return os.str();
}

namespace {

/** Collects violations. Counts are exact per kind; stored messages
 *  are capped per kind so one prolific defect (say, a leaked word of
 *  capacity tripping every later admit) cannot drown the others out
 *  of the report — or mask them from has()/count(). */
class Collector
{
  public:
    explicit Collector(VerifyReport &report) : report_(report) {}

    template <typename... Args>
    void
    add(ViolationKind kind, std::int64_t inst, std::int64_t value,
        Args &&...args)
    {
        constexpr std::size_t per_kind_cap = 100;
        if (++report_.kindCounts[static_cast<std::size_t>(kind)] >
            per_kind_cap)
            return;
        std::ostringstream os;
        (os << ... << args);
        report_.violations.push_back({kind, inst, value, os.str()});
    }

  private:
    VerifyReport &report_;
};

/** Max simultaneous occupancy of half-open intervals [start, end). */
struct Sweep
{
    // (time, delta); releases sort before acquisitions at equal time,
    // matching the pools' semantics (a unit freed at T is usable by
    // an instruction starting at T).
    std::vector<std::pair<std::uint64_t, std::int64_t>> edges;

    void
    occupy(std::uint64_t start, std::uint64_t end, std::int64_t k)
    {
        if (end <= start || k <= 0)
            return;
        edges.emplace_back(start, k);
        edges.emplace_back(end, -k);
    }

    /** Runs the sweep; calls @p on_over(time, level) at the first
     *  point the running level exceeds @p limit. */
    template <typename Fn>
    void
    run(std::int64_t limit, Fn &&on_over)
    {
        std::sort(edges.begin(), edges.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second < b.second;
                  });
        std::int64_t level = 0;
        for (const auto &[t, d] : edges) {
            level += d;
            if (d > 0 && level > limit) {
                on_over(t, level);
                return; // one report per resource, not per cycle
            }
        }
    }
};

} // namespace

VerifyReport
ScheduleVerifier::verify(const std::vector<InstTrace> &insts,
                         const std::vector<ResidencyEvent> &events,
                         const SimStats &stats) const
{
    VerifyReport report;
    Collector add(report);
    report.instsChecked = insts.size();
    report.eventsChecked = events.size();

    const double mem_bw = cfg_.memWordsPerCycle();
    const double net_bw = cfg_.networkWordsPerCycle();
    const double net_scale =
        cfg_.network == NetworkType::Crossbar ? 2.4 : 1.0;
    // Same expression as the simulator's: any divergence is a finding.
    auto mem_window = [&](std::uint64_t words) {
        return static_cast<std::uint64_t>(words / mem_bw) + 1;
    };

    // --- 0. Structure: the trace must cover the program 1:1. -------
    if (insts.size() != prog_.insts.size()) {
        add.add(ViolationKind::StructureMismatch, -1, -1, "trace has ",
                insts.size(), " instructions, program has ",
                prog_.insts.size());
        return report; // per-inst checks below would be misaligned
    }
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const InstTrace &t = insts[i];
        const PolyInst &pi = prog_.insts[i];
        if (t.id != pi.id) {
            add.add(ViolationKind::StructureMismatch, pi.id, -1,
                    "trace record ", i, " carries inst id ", t.id);
        }
        if (t.finish != t.start + pi.duration) {
            add.add(ViolationKind::DurationMismatch, pi.id, -1,
                    "finish ", t.finish, " != start ", t.start,
                    " + duration ", pi.duration);
        }
        if (t.rfPorts != pi.rfPorts) {
            add.add(ViolationKind::StructureMismatch, pi.id, -1,
                    "trace rf ports ", t.rfPorts, " != program's ",
                    pi.rfPorts);
        }
        if (t.networkWords != pi.networkWords) {
            add.add(ViolationKind::StructureMismatch, pi.id, -1,
                    "trace network words ", t.networkWords,
                    " != program's ", pi.networkWords);
        }
        std::array<std::int64_t, numFuTypes> traced{}, wanted{};
        for (const FuUse &u : t.fus)
            traced[static_cast<unsigned>(u.type)] += u.units;
        for (const FuUse &u : pi.fus)
            wanted[static_cast<unsigned>(u.type)] += u.units;
        for (unsigned ty = 0; ty < numFuTypes; ++ty) {
            if (traced[ty] != wanted[ty]) {
                add.add(ViolationKind::StructureMismatch, pi.id, -1,
                        "acquired ", traced[ty], " ",
                        fuTypeName(static_cast<FuType>(ty)),
                        " units, program needs ", wanted[ty]);
            }
        }
    }

    // --- 1a. Issue order is monotone (in-order machine). -----------
    for (std::size_t i = 1; i < insts.size(); ++i) {
        if (insts[i].start < insts[i - 1].start) {
            add.add(ViolationKind::IssueOrder, insts[i].id, -1,
                    "start ", insts[i].start,
                    " precedes predecessor's start ",
                    insts[i - 1].start);
        }
    }

    // --- 1b. Dependency ordering via a last-writer replay. ---------
    // values[].producer only records the final writer, so in-place
    // rewrites need a positional replay to pair each read with the
    // writer actually visible at that point in the program.
    std::vector<std::int64_t> last_writer(prog_.values.size(), -1);
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const PolyInst &pi = prog_.insts[i];
        for (std::uint32_t vid : pi.reads) {
            const std::int64_t p = last_writer[vid];
            if (p < 0)
                continue; // live-in (input / hint / plaintext)
            if (insts[i].start < insts[p].finish) {
                add.add(ViolationKind::DependencyOrder, pi.id, vid,
                        "starts at ", insts[i].start,
                        " before producer inst ", p, " finishes at ",
                        insts[p].finish);
            }
        }
        for (std::uint32_t vid : pi.writes)
            last_writer[vid] = static_cast<std::int64_t>(i);
    }

    // --- 1c. Value links must match the instruction stream. --------
    // The list scheduler's residency pass walks values[].consumers
    // as its future-use oracle, trusting that the list is sorted in
    // issue order with one entry per read occurrence, and that
    // values[].producer names the last writer. Rebuild both from the
    // instructions and flag any drift (a scheduler that reorders
    // without rebuilding the links leaves the oracle lying).
    {
        std::vector<std::vector<std::uint32_t>> want_cons(
            prog_.values.size());
        std::vector<std::int64_t> want_prod(prog_.values.size(), -1);
        for (const PolyInst &pi : prog_.insts) {
            for (std::uint32_t vid : pi.reads)
                want_cons[vid].push_back(pi.id);
            for (std::uint32_t vid : pi.writes)
                want_prod[vid] = pi.id;
        }
        for (std::size_t vid = 0; vid < prog_.values.size(); ++vid) {
            const Value &v = prog_.values[vid];
            if (v.consumers != want_cons[vid]) {
                add.add(ViolationKind::ConsumerOrder, -1,
                        static_cast<std::int64_t>(vid),
                        "consumer list (", v.consumers.size(),
                        " entries) does not match the ",
                        want_cons[vid].size(),
                        " reads in instruction order");
            }
            if (v.producer != want_prod[vid]) {
                add.add(ViolationKind::ConsumerOrder, -1,
                        static_cast<std::int64_t>(vid), "producer ",
                        v.producer, " is not the last writer ",
                        want_prod[vid]);
            }
        }
    }

    // --- 2a. FU pools and register-file ports (interval sweeps). ---
    std::array<Sweep, numFuTypes> fu_sweep;
    Sweep port_sweep;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const InstTrace &t = insts[i];
        std::array<std::int64_t, numFuTypes> need{};
        for (const FuUse &u : t.fus) {
            const unsigned ty = static_cast<unsigned>(u.type);
            if (cfg_.fuCount(u.type) == 0) {
                add.add(ViolationKind::FuAbsent, t.id, -1, "uses ",
                        fuTypeName(u.type),
                        " which this configuration lacks");
            }
            need[ty] += u.units;
        }
        for (unsigned ty = 0; ty < numFuTypes; ++ty)
            fu_sweep[ty].occupy(t.start, t.finish, need[ty]);
        port_sweep.occupy(t.start, t.finish, t.rfPorts);
    }
    for (unsigned ty = 0; ty < numFuTypes; ++ty) {
        const FuType ft = static_cast<FuType>(ty);
        fu_sweep[ty].run(cfg_.fuCount(ft), [&](std::uint64_t at,
                                               std::int64_t level) {
            add.add(ViolationKind::FuOversubscribed, -1, -1, level,
                    " ", fuTypeName(ft), " units in flight at cycle ",
                    at, ", pool has ", cfg_.fuCount(ft));
        });
    }
    port_sweep.run(cfg_.rfPorts,
                   [&](std::uint64_t at, std::int64_t level) {
                       add.add(ViolationKind::RfPortsOversubscribed, -1,
                               -1, level, " RF ports in flight at cycle ",
                               at, ", budget is ", cfg_.rfPorts);
                   });

    // --- 2b. Network: serialized, bandwidth-sized windows. ---------
    std::uint64_t net_words_total = 0;
    const InstTrace *prev_net = nullptr;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const InstTrace &t = insts[i];
        if (t.networkWords == 0)
            continue;
        net_words_total += static_cast<std::uint64_t>(
            t.networkWords * net_scale);
        const std::uint64_t net_cycles =
            static_cast<std::uint64_t>(t.networkWords * net_scale /
                                       net_bw) + 1;
        const std::uint64_t expect =
            t.start + std::max(net_cycles, prog_.insts[i].duration);
        if (t.netBusyUntil != expect) {
            add.add(ViolationKind::NetworkBandwidth, t.id, -1,
                    "network window ends at ", t.netBusyUntil,
                    ", bandwidth/duration require ", expect);
        }
        if (prev_net && t.start < prev_net->netBusyUntil) {
            add.add(ViolationKind::NetworkOverlap, t.id, -1,
                    "transfer starts at ", t.start, " while inst ",
                    prev_net->id, "'s transfer runs until ",
                    prev_net->netBusyUntil);
        }
        prev_net = &t;
    }

    // --- 2c. Memory channel + register-file resident-set replay. ---
    const std::uint64_t capacity = cfg_.rfWords();
    std::vector<char> resident(prog_.values.size(), 0);
    std::vector<char> stored(prog_.values.size(), 0);
    std::uint64_t used = 0, mem_busy = 0, prev_mem_end = 0;
    std::uint64_t ksh_w = 0, input_w = 0, plain_w = 0, iload_w = 0,
                  istore_w = 0, out_w = 0;
    auto admit = [&](const ResidencyEvent &e, const char *what) {
        if (resident[e.valueId]) {
            add.add(ViolationKind::ResidencyConservation, e.instId,
                    e.valueId, what, " of a value already resident");
            return;
        }
        resident[e.valueId] = 1;
        used += e.words;
        if (used > capacity) {
            add.add(ViolationKind::RfCapacityExceeded, e.instId,
                    e.valueId, "resident set reaches ", used,
                    " words, capacity is ", capacity);
        }
    };
    auto release = [&](const ResidencyEvent &e, const char *what) {
        if (!resident[e.valueId]) {
            add.add(ViolationKind::ResidencyConservation, e.instId,
                    e.valueId, what, " of a value not resident");
            return;
        }
        resident[e.valueId] = 0;
        used -= e.words;
    };
    for (const ResidencyEvent &e : events) {
        if (e.valueId >= prog_.values.size()) {
            add.add(ViolationKind::StructureMismatch, e.instId,
                    e.valueId, "event names a value the program lacks");
            continue;
        }
        const Value &v = prog_.values[e.valueId];
        if (e.words != v.words) {
            add.add(ViolationKind::ResidencyConservation, e.instId,
                    e.valueId, "event moves ", e.words,
                    " words, the value is ", v.words);
        }
        const bool transfer = e.action == ResidencyAction::Load ||
                              e.action == ResidencyAction::Stream ||
                              e.action == ResidencyAction::Spill ||
                              e.action == ResidencyAction::StreamStore ||
                              e.action == ResidencyAction::StoreOut;
        if (transfer) {
            if (e.memStart < prev_mem_end) {
                add.add(ViolationKind::MemChannelOverlap, e.instId,
                        e.valueId, residencyActionName(e.action),
                        " transfer starts at ", e.memStart,
                        " before the previous one ends at ",
                        prev_mem_end);
            }
            const std::uint64_t want = mem_window(e.words);
            if (e.memEnd - e.memStart != want) {
                add.add(ViolationKind::MemBandwidth, e.instId,
                        e.valueId, "transfer window of ",
                        e.memEnd - e.memStart, " cycles for ", e.words,
                        " words, bandwidth requires ", want);
            }
            prev_mem_end = std::max(prev_mem_end, e.memEnd);
            mem_busy += e.memEnd - e.memStart;
        } else if (e.memEnd != e.memStart) {
            add.add(ViolationKind::MemBandwidth, e.instId, e.valueId,
                    residencyActionName(e.action),
                    " is bookkeeping-only but occupies the channel");
        }
        switch (e.action) {
          case ResidencyAction::Load:
          case ResidencyAction::Stream:
            // A value produced on-chip exists off-chip only after a
            // writeback; loading it earlier reads garbage.
            if (v.kind == ValueKind::Intermediate &&
                !stored[e.valueId]) {
                add.add(ViolationKind::ReloadBeforeStore, e.instId,
                        e.valueId,
                        "reloaded with no prior spill/stream-store");
            }
            if (e.action == ResidencyAction::Load) {
                admit(e, "load");
            } else if (resident[e.valueId]) {
                add.add(ViolationKind::ResidencyConservation, e.instId,
                        e.valueId, "streamed while resident");
            }
            switch (v.kind) {
              case ValueKind::KeySwitchHint:
                ksh_w += e.words;
                break;
              case ValueKind::Input:
                input_w += e.words;
                break;
              case ValueKind::Plaintext:
                plain_w += e.words;
                break;
              default:
                iload_w += e.words;
                break;
            }
            break;
          case ResidencyAction::Alloc:
            admit(e, "alloc");
            break;
          case ResidencyAction::Spill:
            release(e, "spill");
            stored[e.valueId] = 1;
            istore_w += e.words;
            break;
          case ResidencyAction::StreamStore:
            if (resident[e.valueId]) {
                add.add(ViolationKind::ResidencyConservation, e.instId,
                        e.valueId, "stream-stored while resident");
            }
            stored[e.valueId] = 1;
            istore_w += e.words;
            break;
          case ResidencyAction::StoreOut:
            if (v.kind != ValueKind::Output) {
                add.add(ViolationKind::ResidencyConservation, e.instId,
                        e.valueId, "host store of a non-output value");
            }
            out_w += e.words;
            break;
          case ResidencyAction::Evict:
            release(e, "evict");
            break;
          case ResidencyAction::DeadFree:
            release(e, "dead-free");
            break;
        }
    }

    // --- 3. Conservation against every SimStats counter. -----------
    auto expect_eq = [&](std::uint64_t got, std::uint64_t want,
                         const char *what) {
        if (got != want) {
            add.add(ViolationKind::AccountingMismatch, -1, -1, what,
                    ": stats say ", got, ", the schedule sums to ",
                    want);
        }
    };
    expect_eq(stats.kshLoadWords, ksh_w, "kshLoadWords");
    expect_eq(stats.inputLoadWords, input_w, "inputLoadWords");
    expect_eq(stats.plainLoadWords, plain_w, "plainLoadWords");
    expect_eq(stats.intermLoadWords, iload_w, "intermLoadWords");
    expect_eq(stats.intermStoreWords, istore_w, "intermStoreWords");
    expect_eq(stats.outputStoreWords, out_w, "outputStoreWords");
    expect_eq(stats.memBusyCycles, mem_busy, "memBusyCycles");
    expect_eq(stats.networkWords, net_words_total, "networkWords");

    std::array<std::uint64_t, numFuTypes> busy{}, lane_ops{};
    std::uint64_t rf_words = 0, last = 0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        for (const FuUse &u : insts[i].fus) {
            busy[static_cast<unsigned>(u.type)] +=
                u.units * (insts[i].finish - insts[i].start);
            lane_ops[static_cast<unsigned>(u.type)] += u.laneOps;
        }
        rf_words += prog_.insts[i].rfWords;
        last = std::max(last, insts[i].finish);
    }
    for (const ResidencyEvent &e : events)
        last = std::max(last, e.memEnd);
    for (unsigned ty = 0; ty < numFuTypes; ++ty) {
        expect_eq(stats.fuBusy[ty], busy[ty],
                  (std::string("fuBusy[") +
                   fuTypeName(static_cast<FuType>(ty)) + "]")
                      .c_str());
        expect_eq(stats.fuLaneOps[ty], lane_ops[ty],
                  (std::string("fuLaneOps[") +
                   fuTypeName(static_cast<FuType>(ty)) + "]")
                      .c_str());
    }
    expect_eq(stats.rfAccessWords, rf_words, "rfAccessWords");
    expect_eq(stats.cycles, last, "cycles");

    return report;
}

VerifyReport
verifySchedule(const ChipConfig &cfg, const Program &prog,
               SimStats *stats_out)
{
    Simulator sim(cfg);
    TraceRecorder rec;
    const SimStats stats = sim.run(prog, &rec);
    if (stats_out)
        *stats_out = stats;
    ScheduleVerifier verifier(cfg, prog);
    return verifier.verify(rec.insts(), rec.residency(), stats);
}

} // namespace cl
