// Forward-synthesis kernel layer: the measure-stage inner loop (paper
// Eqs. 4–10 — relay→tag propagation, tag power-up, backscatter SNR, and the
// measured channel h1²·g_d·g_u·drho·h2²·c_hw) as a family of multiversioned
// kernels, the forward twin of the SAR layer in localize/sar_kernel.h.
//
// The measure plane has three pieces (see DESIGN.md "Measurement-synthesis
// plane"):
//   - ForwardPlane (forward_plane.h) hoists everything that depends only on
//     the flight: per-waypoint reader↔relay channels, capped downlink
//     drive, effective downlink gains, the embedded-tag channel.
//   - channel::batch_link_paths (channel/channel_batch.h) enumerates the
//     multipath geometry for one tag against the whole waypoint plane with
//     per-obstacle constants hoisted.
//   - the kernels below turn that geometry into distances, propagation
//     phasors, and per-(waypoint, tag) readability masks + complex target
//     channels, SIMD across waypoints.
//
// Like the SAR kernels, the bodies are compiled several times from one
// source (forward_kernel_impl.inc) under different target ISAs; a runtime
// dispatch table picks the widest supported variant, overridable via the
// RFLY_FORWARD_ISA environment variable. Variants are exposed individually
// so benches can sweep them and tests can cross-check them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rfly::core {

/// Flat argument block for the kernel entry points. Plain pointers only:
/// the kernel bodies are compiled under per-ISA target pragmas where
/// instantiating templates (std::vector and friends) could leak wide
/// instructions into code shared with baseline callers. One struct serves
/// all three ops; each op documents the fields it reads.
struct ForwardKernelArgs {
  // Shared waypoint plane (SoA, length `count`): the flight's actual
  // relay positions.
  std::size_t count = 0;
  const double* px = nullptr;
  const double* py = nullptr;
  const double* pz = nullptr;

  // `distances` op: direct relay→target distances for waypoints
  // [begin, end), clamped below at the propagation model's 1 cm floor.
  double tx = 0.0, ty = 0.0, tz = 0.0;  // target position
  double* dist = nullptr;               // out, length count

  // `phasors` op: flat path list → complex propagation coefficients for
  // paths [begin, end): out = (amp_over_d * path_amp / d) * cis(-k * d).
  const double* path_d = nullptr;    // per-path total distances
  const double* path_amp = nullptr;  // per-path linear amplitude products
  std::size_t n_paths = 0;
  double wavenumber = 0.0;  // 2*pi*f/c; phase = -wavenumber * d
  double amp_over_d = 0.0;  // lambda/(4*pi); amplitude = amp_over_d*amp/d
  double* out_re = nullptr;  // out, length n_paths
  double* out_im = nullptr;

  // `synthesize` op: readability masks + measured target channels for
  // waypoints [begin, end) of every tag, in one pass. Per-waypoint inputs
  // come from the ForwardPlane's linear mirrors; per-tag inputs are the
  // relay→tag channels assembled by the phasor op plus the hoisted direct
  // reader→tag term hd²·drho. All power comparisons are linear-domain
  // (mW), monotone-equivalent to the scalar path's dBm comparisons.
  const double* h1_re = nullptr;        // reader→relay channel, length count
  const double* h1_im = nullptr;
  const double* h1_pow = nullptr;       // |h1|²
  const double* relay_tx_mw = nullptr;  // capped downlink drive, linear mW
  const double* g_d_amp = nullptr;      // effective downlink amplitude gain
  const double* const* h2_re_tags = nullptr;  // per-tag relay→tag channels
  const double* const* h2_im_tags = nullptr;
  const double* direct_re = nullptr;    // per-tag direct term hd²·drho
  const double* direct_im = nullptr;
  std::size_t tags = 0;
  double drho = 0.0;             // backscatter amplitude swing
  double drho2 = 0.0;            // drho² (power domain)
  double sens_mw = 0.0;          // tag sensitivity, linear mW
  double g_up_pow = 0.0;         // uplink gain, linear power
  double g_up_amp = 0.0;         // uplink gain, linear amplitude
  double up_cap_mw = 0.0;        // uplink output cap, linear mW
  double rx_pow = 0.0;           // reader rx gain, linear power
  double rx_amp = 0.0;           // reader rx gain, linear amplitude
  double decode_floor_mw = 0.0;  // noise_mw * 10^(snr_threshold/10)
  double hw_re = 0.0;            // relay hardware phase, cis(phase)
  double hw_im = 0.0;
  double* const* out_re_tags = nullptr;  // per-tag channels, length count
  double* const* out_im_tags = nullptr;
  std::uint8_t* const* readable_tags = nullptr;  // per-tag masks (0/1)
};

/// One compiled variant of the forward kernels. `supported` is the runtime
/// CPU check; calling an unsupported variant is undefined (illegal
/// instruction).
struct ForwardKernelVariant {
  const char* isa = "";  // "scalar", "sse2", "avx2", "avx512", "neon"
  bool supported = false;
  /// Direct relay→target distances for waypoints [begin, end).
  void (*distances)(const ForwardKernelArgs& args, std::size_t begin,
                    std::size_t end) = nullptr;
  /// Propagation phasors for flat paths [begin, end).
  void (*phasors)(const ForwardKernelArgs& args, std::size_t begin,
                  std::size_t end) = nullptr;
  /// Masks + target channels for waypoints [begin, end), all tags.
  void (*synthesize)(const ForwardKernelArgs& args, std::size_t begin,
                     std::size_t end) = nullptr;
};

/// Every variant compiled into this binary, narrowest first: batched scalar
/// (vectorization disabled), the baseline ISA, then any runtime-dispatched
/// widenings the build carries (x86: AVX2+FMA, AVX-512).
const std::vector<ForwardKernelVariant>& forward_kernel_variants();

/// The variant the dispatcher picked: the widest supported one, unless the
/// RFLY_FORWARD_ISA environment variable names a different supported
/// variant (a debugging/bench override; unknown or unsupported names are
/// ignored).
const ForwardKernelVariant& forward_kernel_active();

}  // namespace rfly::core
