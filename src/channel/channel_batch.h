// Batched point-to-point channel geometry over SoA waypoint lanes: the
// multipath enumeration of Environment::paths_between, restructured for one
// fixed target against a whole flight of source points (the measure plane's
// relay→tag link). Everything that depends only on (target, obstacle) is
// hoisted out of the per-waypoint loop:
//
//   - the target's image across each reflector (the image-source method is
//     symmetric: |image(a)→b| = |a→image(b)|, and both segments cross the
//     reflector at the same specular point, so one reflection of the fixed
//     target replaces a per-waypoint reflection of the moving relay);
//   - each obstacle's linear transmission/reflection amplitude factors
//     (db_to_amplitude of the material losses, folded multiplicatively
//     instead of summing dB and exponentiating per path).
//
// Output is a flat SoA path list the forward kernels consume: per-waypoint
// direct-path amplitude products (direct *distances* come from the kernels'
// vectorized `distances` op) plus offset-segmented reflection paths with
// precomputed distances and amplitudes. Used by the measure plane's
// synthesis — mathematically equivalent to paths_between +
// path_coefficient, not bit-identical (tolerance-pinned by
// tests/test_measure_plane.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/environment.h"

namespace rfly::channel {

/// Flat multipath geometry for one target against `count` waypoints.
/// Buffers are reused across calls (clear + refill, no reallocation in
/// steady state) — keep one instance per worker.
struct BatchedPaths {
  /// Per-waypoint direct-path linear amplitude product: antenna gains ×
  /// the transmission factor of every obstacle the direct segment crosses.
  /// Length `count`.
  std::vector<double> direct_amp;
  /// First-order reflection paths, flattened: total (unfolded) path
  /// distance, clamped at the propagation model's 1 cm floor, and the
  /// linear amplitude product (antenna gains × reflection factor ×
  /// per-leg obstructions by other obstacles).
  std::vector<double> refl_d;
  std::vector<double> refl_amp;
  /// Waypoint w's reflection paths are [offsets[w], offsets[w+1]).
  /// Length `count` + 1.
  std::vector<std::uint32_t> offsets;
};

/// Enumerate the multipath geometry from every waypoint (SoA positions,
/// length `count`) to `target`. `gain_amp` is the link's hoisted linear
/// antenna-gain product db_to_amplitude(tx_gain + rx_gain).
void batch_link_paths(const Environment& env, const double* px,
                      const double* py, const double* pz, std::size_t count,
                      const Vec3& target, double gain_amp, BatchedPaths& out);

}  // namespace rfly::channel
