// Per-ISA builds of the forward-synthesis kernels plus the runtime-dispatch
// table — the measure-stage twin of localize/sar_kernel.cpp. The kernel
// bodies live in forward_kernel_impl.inc; each namespace below re-compiles
// them under a different target region:
//
//   kern_scalar   — vectorization disabled: the honest "batched scalar"
//                   fallback and the bench's no-SIMD reference point.
//   kern_base     — whatever the build targets by default (SSE2 on x86-64,
//                   NEON on AArch64, plain scalar elsewhere).
//   kern_avx2     — AVX2 + FMA        (x86 + GCC only; runtime-gated)
//   kern_avx512   — AVX-512 F/DQ + FMA (x86 + GCC only; runtime-gated)
//
// This translation unit is compiled with -fno-math-errno (so sqrt lowers to
// the hardware instruction) and -ffp-contract=fast (so mul-adds fuse where
// the ISA has FMA); see src/core/CMakeLists.txt. Neither flag touches
// system.cpp or forward_plane.cpp, whose exact paths must stay bit-identical
// to the seed.
#include "core/forward_kernel.h"

#include <cstdlib>
#include <cstring>

#include "common/simd.h"

namespace rfly::core {

const char* measure_plane_name(MeasurePlane mode) {
  return mode == MeasurePlane::kFast ? "fast" : "exact";
}

bool parse_measure_plane(const std::string& text, MeasurePlane& out) {
  if (text == "exact") return out = MeasurePlane::kExact, true;
  if (text == "fast") return out = MeasurePlane::kFast, true;
  return false;
}

// --- Kernel instantiations -----------------------------------------------

#if defined(__GNUC__) && !defined(__clang__)
#define RFLY_KERNEL_MULTIVERSION 1
#else
#define RFLY_KERNEL_MULTIVERSION 0
#endif

namespace kern_scalar {
#if RFLY_KERNEL_MULTIVERSION
#pragma GCC push_options
#pragma GCC optimize("no-tree-vectorize", "no-tree-slp-vectorize")
#endif
#include "core/forward_kernel_impl.inc"
#if RFLY_KERNEL_MULTIVERSION
#pragma GCC pop_options
#endif
}  // namespace kern_scalar

namespace kern_base {
#include "core/forward_kernel_impl.inc"
}  // namespace kern_base

#if RFLY_SIMD_X86 && RFLY_KERNEL_MULTIVERSION
#define RFLY_KERNEL_HAVE_X86_VARIANTS 1

namespace kern_avx2 {
#pragma GCC push_options
#pragma GCC target("avx2", "fma")
#include "core/forward_kernel_impl.inc"
#pragma GCC pop_options
}  // namespace kern_avx2

namespace kern_avx512 {
#pragma GCC push_options
#pragma GCC target("avx512f", "avx512dq", "fma")
#include "core/forward_kernel_impl.inc"
#pragma GCC pop_options
}  // namespace kern_avx512

#else
#define RFLY_KERNEL_HAVE_X86_VARIANTS 0
#endif

// --- Dispatch table -------------------------------------------------------

namespace {

std::vector<ForwardKernelVariant> build_variants() {
  std::vector<ForwardKernelVariant> v;
  v.push_back({"scalar", true, &kern_scalar::distances, &kern_scalar::phasors,
               &kern_scalar::synthesize});
  v.push_back({simd::baseline_isa_name(), true, &kern_base::distances,
               &kern_base::phasors, &kern_base::synthesize});
#if RFLY_KERNEL_HAVE_X86_VARIANTS
  v.push_back({"avx2",
               static_cast<bool>(__builtin_cpu_supports("avx2")) &&
                   static_cast<bool>(__builtin_cpu_supports("fma")),
               &kern_avx2::distances, &kern_avx2::phasors,
               &kern_avx2::synthesize});
  v.push_back({"avx512",
               static_cast<bool>(__builtin_cpu_supports("avx512f")) &&
                   static_cast<bool>(__builtin_cpu_supports("avx512dq")),
               &kern_avx512::distances, &kern_avx512::phasors,
               &kern_avx512::synthesize});
#endif
  return v;
}

const ForwardKernelVariant* pick_active(
    const std::vector<ForwardKernelVariant>& v) {
  // Debug/bench override: RFLY_FORWARD_ISA=<name> forces a variant, ignored
  // unless that variant is compiled in and supported by this CPU.
  if (const char* forced = std::getenv("RFLY_FORWARD_ISA")) {
    for (const auto& variant : v) {
      if (variant.supported && std::strcmp(variant.isa, forced) == 0) {
        return &variant;
      }
    }
  }
  const ForwardKernelVariant* best = &v.front();
  for (const auto& variant : v) {
    if (variant.supported) best = &variant;  // list is ordered narrow -> wide
  }
  return best;
}

}  // namespace

const std::vector<ForwardKernelVariant>& forward_kernel_variants() {
  static const std::vector<ForwardKernelVariant> variants = build_variants();
  return variants;
}

const ForwardKernelVariant& forward_kernel_active() {
  static const ForwardKernelVariant* active = pick_active(forward_kernel_variants());
  return *active;
}

}  // namespace rfly::core
