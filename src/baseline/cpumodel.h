/**
 * @file
 * CPU baseline cost model (Sec 8: 32-core Threadripper PRO 3975WX
 * running state-of-the-art FHE libraries).
 *
 * The model counts the scalar modular operations and memory traffic
 * of each homomorphic operation (using the same keyswitching cost
 * formulas the paper tabulates in Table 1) and divides by kernel
 * throughputs *measured on this machine* with the same kernels the
 * host library runs (the active KernelTable backend), scaled to the
 * paper's core count. The calibration is reported alongside every
 * result (see EXPERIMENTS.md).
 */

#ifndef CL_BASELINE_CPUMODEL_H
#define CL_BASELINE_CPUMODEL_H

#include "compiler/homprogram.h"

namespace cl {

/** Measured single-core kernel throughputs (28-bit, N = 2^14). */
struct CpuKernelRates
{
    double modmulPerSec = 0;       ///< Element-wise modmuls/s (mulModVec).
    double nttButterflyPerSec = 0; ///< Forward-NTT butterflies/s.
    double macPerSec = 0; ///< changeRNSBase MACs/s (baseconvMacVec).
};

/** Time the host's kernels on this machine (takes ~20 ms). */
CpuKernelRates measureCpuKernels();

struct CpuModelParams
{
    unsigned cores = 32;        ///< The paper's CPU baseline.
    double parallelEff = 0.45;  ///< Multicore scaling efficiency
                                ///  of FHE libraries (memory-bound).
    double memBandwidth = 1.6e11; ///< Bytes/s (8-ch DDR4-3200).
};

class CpuModel
{
  public:
    CpuModel(CpuKernelRates rates, CpuModelParams params = {})
        : rates_(rates), params_(params)
    {
    }

    /** Estimated execution time in seconds. */
    double run(const HomProgram &hp) const;

    /** Scalar 28/64-bit multiply count of the program (for Fig 3/4). */
    static double scalarMultiplies(const HomProgram &hp);

  private:
    CpuKernelRates rates_;
    CpuModelParams params_;
};

/**
 * Per-keyswitch operation counts (Table 1). `t` digits over `l`
 * towers; t == l reproduces the standard algorithm's costs.
 */
struct KswOpCount
{
    std::uint64_t ntts = 0;     ///< Residue-polynomial (I)NTTs.
    std::uint64_t macVecs = 0;  ///< changeRNSBase multiply-accumulates.
    std::uint64_t mulVecs = 0;  ///< Other element-wise multiplies.
    std::uint64_t addVecs = 0;
    std::uint64_t kshWords = 0; ///< Hint footprint in words.
};
KswOpCount keyswitchCost(unsigned l, unsigned t, std::size_t n);

} // namespace cl

#endif // CL_BASELINE_CPUMODEL_H
