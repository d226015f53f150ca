/** Runtime backend selection: CPUID probe + CL_SIMD override. */

#include "rns/simd/kernels.h"

#include <atomic>
#include <mutex>

#include "util/common.h"
#include "util/env.h"

namespace cl {

namespace simd {

// One per backend translation unit; null when the backend was not
// compiled in (non-x86 host or compiler without the -m flags).
const KernelTable *scalarTable();
const KernelTable *avx2Table();
const KernelTable *avx512Table();

} // namespace simd

namespace {

bool
cpuSupports(SimdBackend b)
{
    switch (b) {
    case SimdBackend::Scalar:
        return true;
#if defined(__x86_64__) || defined(__i386__)
    case SimdBackend::Avx2:
        return __builtin_cpu_supports("avx2");
    case SimdBackend::Avx512:
        return __builtin_cpu_supports("avx512f");
#else
    case SimdBackend::Avx2:
    case SimdBackend::Avx512:
        return false;
#endif
    }
    return false;
}

const KernelTable *
compiledTable(SimdBackend b)
{
    switch (b) {
    case SimdBackend::Scalar:
        return simd::scalarTable();
    case SimdBackend::Avx2:
        return simd::avx2Table();
    case SimdBackend::Avx512:
        return simd::avx512Table();
    }
    return nullptr;
}

std::atomic<const KernelTable *> g_active{nullptr};

} // namespace

const KernelTable &
kernels()
{
    const KernelTable *t = g_active.load(std::memory_order_acquire);
    if (!t) {
        static std::once_flag once;
        std::call_once(once, [] {
            const KernelTable *expected = nullptr;
            // Keep a backend installed by an early setSimdBackend call.
            g_active.compare_exchange_strong(
                expected, kernelTableFor(simdBackendFromEnv()),
                std::memory_order_release, std::memory_order_relaxed);
        });
        t = g_active.load(std::memory_order_acquire);
    }
    return *t;
}

SimdBackend
activeSimdBackend()
{
    return kernels().id;
}

SimdBackend
simdBackendFromEnv()
{
    static constexpr EnvChoice kChoices[] = {
        {"scalar", static_cast<int>(SimdBackend::Scalar)},
        {"avx2", static_cast<int>(SimdBackend::Avx2)},
        {"avx512", static_cast<int>(SimdBackend::Avx512)},
    };
    SimdBackend best = SimdBackend::Scalar;
    for (SimdBackend b : {SimdBackend::Avx2, SimdBackend::Avx512}) {
        if (kernelTableFor(b))
            best = b;
    }
    const auto b = static_cast<SimdBackend>(
        envChoice("CL_SIMD", kChoices, static_cast<int>(best)));
    if (kernelTableFor(b))
        return b;
    warn(std::string("CL_SIMD=") + simdBackendName(b) +
         " unavailable on this host; using scalar kernels");
    return SimdBackend::Scalar;
}

const KernelTable *
kernelTableFor(SimdBackend backend)
{
    if (!cpuSupports(backend))
        return nullptr;
    return compiledTable(backend);
}

bool
setSimdBackend(SimdBackend backend)
{
    const KernelTable *t = kernelTableFor(backend);
    if (!t)
        return false;
    g_active.store(t, std::memory_order_release);
    return true;
}

const char *
simdBackendName(SimdBackend backend)
{
    switch (backend) {
    case SimdBackend::Scalar:
        return "scalar";
    case SimdBackend::Avx2:
        return "avx2";
    case SimdBackend::Avx512:
        return "avx512";
    }
    return "?";
}

} // namespace cl
