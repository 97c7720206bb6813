// Measurement-synthesis plane: per-flight hoisted forward-channel state
// (the measure-stage analogue of the batch runner's localization plane).
//
// The seed's scalar measure loop re-derived every per-waypoint quantity —
// the reader↔relay channel h1, the capped downlink drive, the effective
// downlink gain, the embedded-tag channel — roughly five times per flight
// point *per tag* through the RflySystem call graph. All of it depends only
// on the flight and the system, not the tag. A ForwardPlane computes each
// exactly once per flight, through the same public RflySystem methods (so
// every hoisted value is bit-identical to the scalar call), and stores the
// linear-domain mirrors the multiversioned forward kernels
// (forward_kernel.h) read to synthesize readability masks and target
// channels for a block of waypoints × tags in one SIMD pass.
//
// Planes are shared across every tag in a mission, and — via the
// process-wide content cache below — across missions in a batch that fly
// the same flight through the same system. All RNG stays in the per-point
// collect loop (system.cpp); everything here is RNG-free, so draw order is
// untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/content_cache.h"
#include "common/math_util.h"
#include "core/forward_kernel.h"
#include "core/system.h"
#include "drone/flight.h"

namespace rfly::core {

/// SoA per-waypoint forward-channel state for one flight. Immutable after
/// build; shared read-only across tags, worker threads, and missions.
struct ForwardPlane {
  // Actual waypoint positions (kernel lanes; channels are evaluated at the
  // *actual* position — the reported position enters only the measurement
  // record, straight from the flight).
  std::vector<double> px, py, pz;

  // Per-waypoint hoists, from one call of each scalar method per waypoint.
  std::vector<double> h1_re, h1_im;  // reader_relay_channel(actual)
  std::vector<double> h1_pow;        // |h1|²
  std::vector<double> relay_tx_mw;   // capped downlink drive (P1dB stage), mW
  std::vector<double> g_d_amp;       // db_to_amplitude(effective_downlink_gain_db)
  std::vector<cdouble> embedded;     // measured_embedded_channel(actual)

  std::size_t size() const { return px.size(); }

  /// Hoist the flight once: calls the same public RflySystem methods the
  /// seed's scalar collect loop called, one evaluation per waypoint. Bumps
  /// the `measure.plane.channel_evals` obs counter by the flight size — the
  /// per-waypoint channel evaluations this build performs, charged once per
  /// flight instead of once per (point, tag).
  static ForwardPlane build(const RflySystem& system,
                            const std::vector<drone::FlownPoint>& flight);
};

/// Kernel-synthesized per-tag measure-stage output: one readability flag
/// and one complex target channel per waypoint. The embedded channel comes
/// straight from the plane.
struct SynthChannels {
  std::vector<std::uint8_t> readable;  // 0/1 per waypoint
  std::vector<double> target_re, target_im;
};

/// Synthesis for every tag against one plane: batched multipath geometry
/// (channel::batch_link_paths, per-obstacle constants hoisted per tag),
/// then the active forward kernels for distances, propagation phasors, and
/// the multi-tag synthesize pass. RNG-free. `variant` forces a specific
/// kernel variant (tests/benches); null uses the dispatcher's pick.
std::vector<SynthChannels> synthesize_forward_channels(
    const RflySystem& system, const ForwardPlane& plane,
    const std::vector<Vec3>& tag_positions,
    const ForwardKernelVariant* variant = nullptr);

/// ContentCache key for (system, flight): the bit patterns of everything a
/// plane's contents depend on — reader position, every config field the
/// plane reads, obstacle geometry and materials, actual waypoint positions.
std::string plane_key(const RflySystem& system,
                      const std::vector<drone::FlownPoint>& flight);

/// The process-wide plane cache the pipeline's measure stage uses (obs
/// prefix `forward_plane_cache`); the batch runner applies its retention
/// bound to it and reports hit/miss deltas in BatchRunInfo.
ContentCache<ForwardPlane>& global_forward_plane_cache();

}  // namespace rfly::core
