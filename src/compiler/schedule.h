/**
 * @file
 * Static instruction scheduling for lowered programs (Sec 6).
 *
 * The accelerator issues in order, so instruction order alone decides
 * how much the FU pools overlap, how long live ranges stay resident,
 * and how often the Belady manager spills. Lowering emits
 * instructions in naive HomProgram order, which serializes each
 * keyswitch chain on its own operand stalls while independent
 * pipelines sit idle behind it. The list scheduler here reorders a
 * lowered Program into any legal topological order of its dependence
 * graph, picking at every step the ready instruction that can issue
 * soonest on a resource model of the chip — which naturally
 * interleaves independent keyswitch pipelines across the NTT / MAC /
 * mod-down pools — with critical-path height as the tie-break and a
 * register-pressure lookahead that prefers live-range-shrinking
 * instructions once the modeled resident set nears capacity.
 *
 * Output is deterministic: every comparison bottoms out in the
 * instruction id, no timestamps or host state are consulted, and the
 * pass is single-threaded, so the scheduled program is byte-identical
 * across platforms and CL_THREADS settings.
 */

#ifndef CL_COMPILER_SCHEDULE_H
#define CL_COMPILER_SCHEDULE_H

#include "compiler/homprogram.h"
#include "hw/config.h"
#include "isa/program.h"

namespace cl {

/** Scheduling policy applied to a lowered Program. */
enum class ScheduleMode
{
    None, ///< Keep the lowering emission order.
    List  ///< Dependence-graph list scheduling (see file header).
};

const char *scheduleModeName(ScheduleMode m);

/** Parse a --schedule CLI value ("none"/"list"); fatal on anything
 *  else, listing the valid choices. */
ScheduleMode scheduleModeByName(const std::string &name);

/** Statistics of one scheduling run, for reports and tests. */
struct ScheduleStats
{
    std::size_t depEdges = 0; ///< Deduplicated dependence edges.
    std::size_t moved = 0;    ///< Instructions not at their old slot.
    /** Duration-weighted longest path through the dependence graph —
     *  a lower bound on any legal schedule's span. */
    std::uint64_t criticalPathCycles = 0;
};

/**
 * Reorder @p prog under @p mode. ScheduleMode::None returns the
 * program unchanged. The result contains the same values and the
 * same instructions (new ids in issue order); per-value
 * producer/consumer links are rebuilt to match the scheduled order.
 * Candidate orders are measured through Simulator::run's issue-order
 * view, so only the winning order is materialized.
 */
Program scheduleProgram(const Program &prog, const ChipConfig &cfg,
                        ScheduleMode mode,
                        ScheduleStats *stats = nullptr);

/**
 * Dedup'd dependence graph over a HomProgram's ops — the op-level
 * analogue of the instruction-level graph the list scheduler builds
 * (HomPrograms are SSA, so the graph falls straight out of the arg
 * lists; duplicate args like add(x, x) contribute one edge). The host
 * task-graph runtime (src/runtime) executes along this graph: an op
 * becomes ready when its predecessors retire, and the ready queue is
 * ordered by `height` — the same duration-weighted critical-path
 * priority the scheduler uses, with homOpWeight as the duration model.
 */
struct HomDepGraph
{
    std::vector<std::vector<std::uint32_t>> succs; ///< Dedup'd.
    std::vector<std::uint32_t> predCount;          ///< Dedup'd in-degree.
    /** Weight-inclusive critical path from op to any sink. */
    std::vector<std::uint64_t> height;
    std::uint64_t critical = 0; ///< max over height.
    std::size_t edges = 0;      ///< Dedup'd edge count.
};

/** Relative host cost of one op (keyswitching ops dominate). */
std::uint64_t homOpWeight(const HomOp &op);

HomDepGraph buildHomDepGraph(const HomProgram &prog);

} // namespace cl

#endif // CL_COMPILER_SCHEDULE_H
