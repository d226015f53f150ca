/**
 * @file
 * Cycle-level simulator for the statically scheduled accelerator.
 *
 * Models (Sec 4, Sec 8):
 *  - in-order issue of the compiler's instruction stream;
 *  - per-class FU pools with full pipelining (one vector element per
 *    lane per cycle) and multi-FU occupancy for chained pipelines;
 *  - the banked register file as a pool of effective ports;
 *  - the inter-lane-group network as a bandwidth-limited resource
 *    (fixed permutation network, or the crossbar ablation with the
 *    2.4x traffic of residue-polynomial tiling, Sec 4.3);
 *  - HBM with decoupled data orchestration: loads are prefetched on
 *    an independent memory timeline, and on-chip residency is managed
 *    with Belady's MIN eviction using the static schedule's future
 *    use information (Sec 6). The simulator derives that information
 *    itself, in one pass over the instruction stream it issues, so it
 *    never depends on the per-value links stored in the Program.
 */

#ifndef CL_SIM_SIMULATOR_H
#define CL_SIM_SIMULATOR_H

#include <span>

#include "isa/program.h"
#include "sim/stats.h"

namespace cl {

class TraceSink;

class Simulator
{
  public:
    explicit Simulator(ChipConfig cfg) : cfg_(std::move(cfg)) {}

    /**
     * Execute a program, returning its statistics. When @p trace is
     * non-null, every instruction and residency event is reported to
     * it (sim/trace.h); a null sink adds no work and leaves results
     * bit-identical.
     */
    SimStats run(const Program &prog, TraceSink *trace = nullptr);

    /**
     * Execute @p prog's instructions in @p order, a permutation of
     * instruction indices, without materializing the reordered
     * program. Trace ids are issue positions, so the result and the
     * trace equal those of running the program rebuilt in @p order
     * through Program::addInst.
     */
    SimStats run(const Program &prog, std::span<const std::uint32_t> order,
                 TraceSink *trace = nullptr);

  private:
    /** Shared body; a null @p order issues in program order. */
    SimStats issue(const Program &prog, const std::uint32_t *order,
                   TraceSink *trace);

    ChipConfig cfg_;
};

} // namespace cl

#endif // CL_SIM_SIMULATOR_H
