/**
 * @file
 * Static schedule verification (DESIGN.md §7's "schedule legality").
 *
 * The cycle simulator both *assigns* times to a statically scheduled
 * Program and *accounts* for the resources those assignments consume.
 * Every result in the evaluation (Tables 3/4/5, Figs 9-11) rests on
 * those assignments being legal. ScheduleVerifier is an independent
 * pass that replays an emitted schedule — the instruction trace plus
 * the residency-event stream — against the Program and ChipConfig,
 * with its own bookkeeping (interval sweeps, a resident-set replay,
 * per-category traffic sums), and reports every violation of:
 *
 *  1. **Dependency ordering** — no instruction starts before the last
 *     writer of any operand has finished, including operands that
 *     were spilled or stream-stored and later reloaded; issue order
 *     is monotone; reloads of on-chip-produced values are preceded by
 *     a writeback.
 *  2. **Resource legality** — at every cycle: per-class FU occupancy
 *     within the configured pool size, register-file ports within the
 *     port budget, the inter-group network serialized with windows no
 *     shorter than its bandwidth allows, memory-channel transfers
 *     serialized and sized exactly to the HBM bandwidth, and the
 *     replayed register-file resident set within capacity with every
 *     load/alloc/spill/evict/free conserving it.
 *  3. **Link coherence** — the per-value producer/consumer links
 *     must match the instruction stream exactly, in issue order. The
 *     simulator derives its Belady future-use lists from the stream
 *     itself, but the list scheduler's residency pass plans from
 *     these links, and a scheduler that reorders instructions
 *     without rebuilding them would hand every later pass stale
 *     futures.
 *  4. **Traffic conservation** — per-value transfer words summed from
 *     the event stream must equal every SimStats counter (the six
 *     Fig 10a categories, memory busy cycles, per-FU busy unit-cycles
 *     and lane-ops, network words, RF access words, and the final
 *     cycle count).
 *
 * None of the simulator's state is reused: the verifier sees only the
 * Program, the ChipConfig, and the recorded schedule, so a
 * bookkeeping bug in the simulator cannot hide itself.
 */

#ifndef CL_VERIFY_VERIFIER_H
#define CL_VERIFY_VERIFIER_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace cl {

/** Defect classes a schedule can exhibit. */
enum class ViolationKind
{
    StructureMismatch,    ///< Trace does not cover the program 1:1.
    DurationMismatch,     ///< finish != start + the program's duration.
    IssueOrder,           ///< Start times regress vs program order.
    DependencyOrder,      ///< Consumer starts before its producer ends.
    ReloadBeforeStore,    ///< On-chip value reloaded with no writeback.
    FuOversubscribed,     ///< Per-cycle FU units exceed the pool.
    FuAbsent,             ///< FU class the configuration lacks.
    RfPortsOversubscribed,///< Per-cycle RF ports exceed the budget.
    NetworkOverlap,       ///< Serialized network windows overlap.
    NetworkBandwidth,     ///< Network window off its bandwidth size.
    MemChannelOverlap,    ///< Memory-channel transfers overlap.
    MemBandwidth,         ///< Transfer window off its bandwidth size.
    RfCapacityExceeded,   ///< Replayed resident set exceeds capacity.
    ResidencyConservation,///< Load/spill/free inconsistent with state.
    ConsumerOrder,        ///< Value links disagree with inst order.
    AccountingMismatch,   ///< A SimStats counter != the event sum.
};

inline constexpr std::size_t numViolationKinds =
    static_cast<std::size_t>(ViolationKind::AccountingMismatch) + 1;

const char *violationKindName(ViolationKind k);

struct Violation
{
    ViolationKind kind;
    std::int64_t instId = -1;  ///< Offending instruction, -1 if n/a.
    std::int64_t valueId = -1; ///< Offending value, -1 if n/a.
    std::string message;
};

struct VerifyReport
{
    /** Stored messages, capped per kind; counts below stay exact. */
    std::vector<Violation> violations;
    std::array<std::size_t, numViolationKinds> kindCounts{};
    std::size_t instsChecked = 0;
    std::size_t eventsChecked = 0;

    std::size_t total() const;
    bool ok() const { return total() == 0; }
    bool has(ViolationKind k) const { return count(k) > 0; }
    std::size_t count(ViolationKind k) const
    {
        return kindCounts[static_cast<std::size_t>(k)];
    }

    /** Per-kind counts plus the first few messages, for CLIs/tests. */
    std::string summary(std::size_t max_messages = 8) const;
};

class ScheduleVerifier
{
  public:
    ScheduleVerifier(ChipConfig cfg, const Program &prog)
        : cfg_(std::move(cfg)), prog_(prog)
    {
    }

    /** Verify a recorded schedule against the program and config. */
    VerifyReport verify(const std::vector<InstTrace> &insts,
                        const std::vector<ResidencyEvent> &events,
                        const SimStats &stats) const;

  private:
    ChipConfig cfg_;
    const Program &prog_;
};

/**
 * Convenience wrapper: simulate @p prog under @p cfg with a
 * TraceRecorder and verify the recorded schedule. When @p stats_out
 * is non-null the run's SimStats are copied there.
 */
VerifyReport verifySchedule(const ChipConfig &cfg, const Program &prog,
                            SimStats *stats_out = nullptr);

} // namespace cl

#endif // CL_VERIFY_VERIFIER_H
