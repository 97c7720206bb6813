// Top-level through-relay localizer: disentangle -> SAR heatmap (coarse to
// fine) -> peak candidates -> trajectory-nearest selection. This is the
// pipeline behind Figs. 6, 12, 13, 14.
#pragma once

#include "common/status.h"
#include "localize/measurement.h"
#include "localize/peak.h"
#include "localize/rssi.h"
#include "localize/sar.h"

namespace rfly::localize {

struct LocalizerConfig {
  GridSpec grid{};
  double freq_hz = 915e6;
  PeakSelection selection = PeakSelection::kNearestToTrajectory;
  double peak_threshold_fraction = 0.5;
  /// Coarse-to-fine search: scan at `coarse_resolution_m`, then refine the
  /// strongest candidates at grid.resolution_m. Set false for a single
  /// full-resolution sweep (Fig. 6 heatmaps).
  bool multires = true;
  double coarse_resolution_m = 0.05;
  int refine_candidates = 5;
  /// Z plane the tags sit on (paper: tags on the ground, 2D localization).
  double z_plane_m = 0.0;
  /// SAR worker threads: 0 = hardware concurrency via the shared pool,
  /// 1 = the exact legacy serial path, n = at most n threads. Results are
  /// identical at every setting (see DESIGN.md "Parallel SAR engine").
  unsigned threads = 0;
  /// SAR evaluation kernel (see sar_kernel.h). kFast, the SIMD kernel, is
  /// what every mission and trial runs; kExact, the seed's libm loop, is
  /// the reference tests and the kernel comparison benches pin it against
  /// (same argmax cell, values equal to rounding — see DESIGN.md "SIMD SAR
  /// kernel layer").
  SarKernel kernel = SarKernel::kFast;
  /// Search strategy (see sar_kernel.h), orthogonal to `kernel`. kExact is
  /// the legacy sweep; kIncremental builds the same heatmap through
  /// SarAccumulator (the same argmax; this is the mode that streams live
  /// estimates in the mission pipeline);
  /// kCoarseToFine scans the fine lattice every `coarse_resolution_m`,
  /// keeps the top `refine_candidates` peaks, and refines each one's
  /// neighborhood at full resolution — every refined candidate is a true
  /// lattice point, so a covered argmax is the brute-force answer
  /// (property-tested in tests/test_coarse2fine.cpp). With kCoarseToFine
  /// the `multires` knob is ignored: the mode subsumes it.
  SarSearch search = SarSearch::kExact;
};

struct LocalizationResult {
  double x = 0.0;
  double y = 0.0;
  double peak_value = 0.0;
  std::vector<Peak> candidates;  // considered peaks, strongest first
  std::size_t measurements_used = 0;
};

/// Localize one tag from its measurement set. Fails with kDegenerateGrid
/// when the search window has no cells, kNoReference when disentanglement
/// drops every measurement (no usable embedded-tag channel to divide by),
/// and kNoPeaks when the heatmap has no candidate above the threshold
/// fraction.
Expected<LocalizationResult> localize_2d(const MeasurementSet& measurements,
                                         const LocalizerConfig& config);

/// Stage-level entry: localize an already-disentangled half-link set (the
/// mission pipeline times disentanglement and SAR search as separate
/// stages). Same error vocabulary as localize_2d minus the
/// disentanglement step.
Expected<LocalizationResult> localize_2d_from(const DisentangledSet& set,
                                              const LocalizerConfig& config);

/// The grid the main heatmap sweep actually runs on for this config: the
/// stride-widened coarse grid under kCoarseToFine, the coarse-resolution
/// window when `multires` is set, the configured grid otherwise. This is
/// the plane a batched runner must precompute to substitute for the sweep
/// inside localize_2d_from.
GridSpec localize_scan_grid(const LocalizerConfig& config);

/// Finish a localization whose main sweep was computed elsewhere: `map`
/// must be a heatmap over localize_scan_grid(config) whose values are
/// bit-identical to the sweep localize_2d_from would run (sar_heatmap /
/// SarAccumulator — equivalent by contract). Peak finding, refinement,
/// selection and every error path are the shared code localize_2d_from
/// itself uses, so the result is bit-identical to the unbatched call.
/// This is the batched mission runner's entry point onto the shared
/// measurement plane.
Expected<LocalizationResult> localize_2d_with_plane(const DisentangledSet& set,
                                                    const LocalizerConfig& config,
                                                    const Heatmap& map);

/// Validate a search grid: finite bounds, a finite positive resolution and
/// a non-empty extent on both axes. Returns kDegenerateGrid with the
/// offending numbers otherwise.
Status validate_grid(const GridSpec& grid);

/// 3D extension (Section 5.2): grid search over a volume; meaningful when
/// the trajectory itself spans two dimensions.
struct Volume {
  double x_min = 0.0, x_max = 1.0;
  double y_min = 0.0, y_max = 1.0;
  double z_min = 0.0, z_max = 1.0;
  double resolution_m = 0.05;
};

struct Localization3dResult {
  channel::Vec3 position;
  double peak_value = 0.0;
};

/// 3D search configuration. `threads` and `kernel` as in LocalizerConfig:
/// the volume is sharded by z-slice; each slice keeps its own argmax and the
/// slices reduce in fixed z order, so the result matches the serial scan at
/// any thread count.
struct Localize3dConfig {
  double freq_hz = 915e6;
  unsigned threads = 0;
  SarKernel kernel = SarKernel::kFast;
  /// kExact: brute-force volume scan. kIncremental: the same sums grown
  /// per z-slice through SarAccumulator (row-blocked evaluation — with the
  /// fast kernel this alone beats the per-point brute scan). kCoarseToFine:
  /// sample the volume lattice every `coarse_stride` cells per axis, keep
  /// the `refine_top_k` strongest samples, refine each one's +/-stride
  /// neighborhood at full resolution; ties resolve to the lexicographically
  /// smallest (z, y, x) index — the brute-force scan's rule — so a covered
  /// argmax reproduces the brute answer exactly.
  SarSearch search = SarSearch::kExact;
  /// Coarse lattice stride in fine cells per axis (clamped to >= 2). The
  /// default keeps the coarse spacing at 2 cells = 0.1 m on the usual
  /// 0.05 m volumes — about half the ~λ/4 SAR main-lobe width at 915 MHz,
  /// so the coarse sweep cannot straddle the lobe. Wider strides prune
  /// harder but may rank sidelobes above an unsampled main lobe.
  int coarse_stride = 2;
  int refine_top_k = 16;
};

/// Fails with kDegenerateGrid when the volume is not a valid grid (checked
/// before any cell is counted or allocated), kNoReference when
/// disentanglement drops every measurement, and kNoPeaks when no cell is
/// evaluated.
Expected<Localization3dResult> localize_3d(const MeasurementSet& measurements,
                                           const Volume& volume,
                                           const Localize3dConfig& config);

}  // namespace rfly::localize
