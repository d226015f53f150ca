/**
 * @file
 * Per-call layer probes shared by the host workloads: rns kernels,
 * keyswitch stages and CKKS ops, each timed at the workload's own
 * context and top level under a span of the traced run.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <vector>

#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/keys.h"
#include "spans.h"

namespace perfbench {

/** Splitmix-style mix of a seed and an index (HostRunner's per-op
 *  value seeds use the same function). */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/** Uniform complex slot values with real and imaginary parts in
 *  [-bound, bound). With bound 1 these are HostRunner's input values. */
std::vector<cl::Complex> randomSlots(std::uint64_t seed, std::size_t slots,
                                     double bound);

/** -log2 of the largest slot error of @p got against @p want. */
double precisionBits(const std::vector<cl::Complex> &want,
                     const std::vector<cl::Complex> &got);

/**
 * Times rns.ntt_{fwd,inv}, rns.baseconv, ckks.ks.{decompose,
 * inner_product,mod_down}, ckks.{rotate,multiply,rescale,mul_plain,
 * encode} at the top level of @p ctx, @p reps calls each, and adds
 * their medians to @p r's per-layer metrics. Draws fresh keys from
 * @p keygen.
 */
void probeLayers(const cl::CkksContext &ctx, const cl::CkksEncoder &enc,
                 cl::KeyGenerator &keygen, const cl::PublicKey &pk,
                 std::uint64_t seed, unsigned reps, SpanLog &log,
                 Result &r);

/** Adds the kernel, memory-traffic, OpCounter and pool deltas of
 *  @p s, divided by @p per, as per-layer metrics. */
void counterMetrics(const Span &s, double per, Result &r);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
