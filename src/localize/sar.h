// Non-linear SAR projection (paper Eq. 11-12): the matched filter
//   P(x, y) = | sum_l h_l * e^{+j 2 pi f (2 d_l(x,y)) / c} |
// evaluated over a 2D grid, where d_l is the distance from trajectory point
// l to the candidate location and h_l is the isolated relay->tag half-link
// channel. The conjugate phase compensates the round-trip delay, so P peaks
// where the hypothesized location explains every measurement coherently.
//
// Two kernels evaluate P (see sar_kernel.h): `fast`, the blocked SIMD
// kernel (batched polynomial sincos, runtime ISA dispatch), is the default
// and what every mission runs; `exact`, the seed's libm loop, is kept
// bit-identical as the reference tests and the kernel comparison benches
// pin `fast` against (same argmax cell, values equal to rounding).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/content_cache.h"
#include "localize/disentangle.h"
#include "localize/sar_kernel.h"

namespace rfly::localize {

/// Number of sample points on one grid axis spanning [lo, hi] at `res`:
/// floor((hi-lo)/res) + 1, with a few ULPs of forgiveness so an extent
/// that is an exact multiple of the resolution keeps its last cell even
/// when the division lands at 99.999...96 (0.3/0.1 in doubles is below 3;
/// the naive floor would drop the final sample).
std::size_t grid_axis_cells(double lo, double hi, double res);

struct GridSpec {
  double x_min = 0.0, x_max = 1.0;
  double y_min = 0.0, y_max = 1.0;
  double resolution_m = 0.01;

  std::size_t nx() const;
  std::size_t ny() const;
  double x_at(std::size_t ix) const { return x_min + static_cast<double>(ix) * resolution_m; }
  double y_at(std::size_t iy) const { return y_min + static_cast<double>(iy) * resolution_m; }
};

/// Row-major heatmap of P(x, y) values.
struct Heatmap {
  GridSpec grid;
  std::vector<double> values;  // ny rows of nx

  double at(std::size_t ix, std::size_t iy) const { return values[iy * grid.nx() + ix]; }
  double max_value() const;
};

/// Per-antenna SoA precompute for the SAR inner loop: the round-trip
/// wavenumber plus trajectory positions and channel weights laid out as
/// flat contiguous arrays, hoisted once per heatmap so the per-cell loop
/// streams cache lines instead of chasing Vec3/complex structs.
struct SarGeometry {
  double k = 0.0;  // 2*pi*f*2/c (round trip)
  std::vector<double> px, py, pz;    // trajectory positions
  std::vector<double> hre, him;      // channel weights, split re/im
  std::size_t size() const { return px.size(); }
  static SarGeometry from(const DisentangledSet& set, double freq_hz);
};

/// The exact kernel's one cell loop, shared by sar_heatmap,
/// sar_heatmap_multi, SarAccumulator and the 2D refinement patches. For one
/// row of cells (xs[0..nx), y, z) and every tag t it sums, per cell,
///   re += hre[t][l]*cos(k*d) - him[t][l]*sin(k*d)
///   im += hre[t][l]*sin(k*d) + him[t][l]*cos(k*d)
/// with d = sqrt(dx*dx + dy*dy + dz*dz), over the samples l in ascending
/// order: the seed's expressions in the seed's order, so every sum is
/// bit-identical to the per-cell loop (tests/test_sar_exact_golden.cpp).
/// Only the nesting differs: per block of cells and sample, a distance
/// pass, a pass of independent libm cos/sin calls, then the per-tag
/// accumulate, so the core overlaps work across cells. Not thread-safe:
/// one evaluator per worker.
class ExactRowEvaluator {
 public:
  /// `hre`/`him` are per-tag weight tables of `tags` pointers, each to
  /// `samples` doubles; the pointed-to arrays must outlive the evaluator.
  ExactRowEvaluator(double k, const double* px, const double* py,
                    const double* pz, std::size_t samples,
                    const double* const* hre, const double* const* him,
                    std::size_t tags);
  /// Single-tag evaluator over a prebuilt geometry (which must outlive it).
  explicit ExactRowEvaluator(const SarGeometry& geo);

  /// Sum every tag's samples over one row; re()/im() hold the sums until
  /// the next call.
  void evaluate(const double* xs, std::size_t nx, double y, double z);
  const double* re(std::size_t tag) const { return re_.data() + tag * nx_; }
  const double* im(std::size_t tag) const { return im_.data() + tag * nx_; }

 private:
  static constexpr std::size_t kBlockCells = 64;

  double k_;
  const double *px_, *py_, *pz_;
  std::size_t samples_;
  std::vector<const double*> hre_, him_;
  std::size_t nx_ = 0;
  std::vector<double> re_, im_;  // tags rows of nx_ sums
};

/// Evaluate P over the grid at plane height `z` (tags on the floor: z=0).
/// `freq_hz` is the relay-tag half-link carrier f2 — the paper notes f is
/// an acceptable stand-in since (f - f2)/f < 0.01.
///
/// `threads`: 0 = shared pool at hardware concurrency, 1 = serial on the
/// calling thread, n = at most n threads. The grid is sharded by row and
/// each cell accumulates its own sum in a fixed order, so the heatmap is
/// bit-identical for every thread count — with either kernel
/// (tests/test_sar_parity.cpp covers the threads x kernel matrix).
///
/// `kernel`: kFast (the default) runs the SIMD kernel; kExact reproduces
/// the seed output bit-for-bit (identical argmax, values within ~1e-12
/// relative of each other).
Heatmap sar_heatmap(const DisentangledSet& set, const GridSpec& grid, double freq_hz,
                    double z_plane = 0.0, unsigned threads = 0,
                    SarKernel kernel = SarKernel::kFast);

/// Trajectory positions as shared SoA arrays — the cacheable half of
/// SarGeometry (channel weights are per tag and per mission; positions
/// repeat whenever the same flight serves many tags or many identical
/// missions). Built once per distinct trajectory through
/// global_trajectory_cache() and shared read-only across a batch.
struct SharedTrajectory {
  std::vector<double> px, py, pz;
  std::size_t size() const { return px.size(); }
  static SharedTrajectory from(const std::vector<channel::Vec3>& positions);
};

/// A grid with its cell coordinates hoisted once — the other cacheable
/// buffer (sar_heatmap rebuilds xs/ys per call; a batch reuses one copy).
/// xs/ys hold the identical x_min + i*res values sar_heatmap computes, so
/// sharing them is bit-invisible.
struct SharedGrid {
  GridSpec spec;
  std::vector<double> xs, ys;
  static SharedGrid from(const GridSpec& grid);
};

/// ContentCache keys: the waypoints' and the grid parameters' bit patterns.
std::string trajectory_key(const std::vector<channel::Vec3>& positions);
std::string grid_key(const GridSpec& spec);

/// Process-wide caches the batch runner serves its plane groups' shared
/// buffers from. Both mirror to obs as `geometry_cache.*`.
ContentCache<SharedTrajectory>& global_trajectory_cache();
ContentCache<SharedGrid>& global_grid_cache();

/// One tag's slice of a multi-tag sweep: channel weights over the shared
/// trajectory (length = trajectory size) and the output plane to fill
/// (ny rows of nx, row-major — a Heatmap::values buffer or arena memory).
struct MultiTagSlot {
  const double* hre = nullptr;
  const double* him = nullptr;
  double* values = nullptr;
};

/// Blocked multi-tag heatmap sweep: evaluate `count` tags' planes over one
/// shared trajectory and one shared grid in a single row-sharded pass, so
/// the per-(cell, sample) distance and sincos — the dominant cost — are
/// computed once and reused by every tag. Each tag's plane is bit-identical
/// to sar_heatmap over that tag alone (both kernels; pinned by
/// tests/test_batch_parity.cpp), so the batched mission runner can hoist
/// grouped localize stages onto one shared plane without changing a bit.
/// `threads`/`kernel` as in sar_heatmap.
void sar_heatmap_multi(const SharedTrajectory& trajectory, const SharedGrid& grid,
                       double freq_hz, double z_plane, const MultiTagSlot* slots,
                       std::size_t count, unsigned threads = 0,
                       SarKernel kernel = SarKernel::kFast);

/// Evaluate P at a single 3D point (used by peak refinement, the 3D
/// extension and tests). The exact path is the seed loop, bit-identical.
double sar_projection(const DisentangledSet& set, const channel::Vec3& p,
                      double freq_hz, SarKernel kernel = SarKernel::kFast);

/// Same, over a prebuilt geometry — the fast path for refinement loops
/// that evaluate many points against one measurement set (hoists the SoA
/// conversion out of the point loop). Exact here still means the libm
/// sincos in sequential sample order.
double sar_projection(const SarGeometry& geo, const channel::Vec3& p,
                      SarKernel kernel = SarKernel::kFast);

/// A position estimate emitted while the aperture is still being collected
/// (incremental search): the current heatmap argmax plus how much evidence
/// backs it. This is what a live mission display — or a trajectory
/// replanner — consumes per waypoint.
struct LiveEstimate {
  std::size_t measurements = 0;  // samples folded in when this was emitted
  double x = 0.0, y = 0.0;       // current heatmap argmax
  double peak_value = 0.0;
  /// Peak-to-mean contrast of the current partial heatmap, in [0, 1]:
  /// 0 = flat (no evidence), -> 1 as the peak dominates the grid.
  double confidence = 0.0;
  /// measurements / expected aperture size (1.0 when no expectation given).
  double coverage = 0.0;
};

/// Incremental SAR accumulator: the per-cell complex partial sums of
/// Eq. 12, grown measurement-by-measurement so the heatmap exists *as the
/// drone flies* instead of being recomputed over the full aperture at
/// mission end.
///
/// Equivalence contract (pinned by tests/test_sar_incremental.cpp):
///   - Adding a measurement sequence in any call grouping — whole aperture
///     at once, one waypoint at a time, or mixed — produces bit-identical
///     planes: every grouping replays the same left-to-right rounding
///     sequence per cell (each add folds its batch in registers, and the
///     plane update `acc += block` re-rounds exactly where the batch loop
///     would have).
///   - With the exact kernel, finalize() is bit-identical to sar_heatmap()
///     over the same set; with the fast kernel it reproduces the same
///     argmax (values within the documented fast-kernel tolerance).
///   - remove_measurements() of everything added so far, in one call in
///     add order, returns the planes to the pinned all-zero state exactly
///     (the subtracted register fold equals the accumulated value, and
///     x - x = +0.0). Partial removal is approximate-inverse only.
///
/// `threads` as in sar_heatmap: rows shard, results identical at every
/// setting. Not thread-safe itself: one writer at a time.
class SarAccumulator {
 public:
  SarAccumulator(const GridSpec& grid, double freq_hz, double z_plane = 0.0,
                 SarKernel kernel = SarKernel::kFast, unsigned threads = 1);

  const GridSpec& grid() const { return grid_; }
  std::size_t measurement_count() const { return count_; }

  /// Fold a batch of disentangled measurements into the partial sums.
  void add_measurements(const DisentangledSet& set);
  /// Subtract a batch previously added (see the equivalence contract).
  void remove_measurements(const DisentangledSet& set);
  /// Single-sample convenience — the per-waypoint streaming path.
  void add_measurement(const channel::Vec3& position, cdouble channel);

  /// Snapshot the current heatmap: |partial sum| per cell.
  Heatmap finalize() const;

  /// Current argmax (first strict maximum in row-major y-then-x order,
  /// matching the batch localizer's tie rule) with confidence/coverage.
  /// `expected_measurements` sizes the coverage denominator; 0 means "no
  /// expectation" and reports 1.0 once anything has been added.
  LiveEstimate estimate(std::size_t expected_measurements = 0) const;

  /// Raw partial-sum planes, row-major like Heatmap::values — the test
  /// surface for the pinned-empty-state guarantee.
  const std::vector<double>& partial_re() const { return re_; }
  const std::vector<double>& partial_im() const { return im_; }

 private:
  void apply(const DisentangledSet& set, double sign);

  GridSpec grid_;
  double freq_hz_ = 915e6;
  double z_plane_ = 0.0;
  SarKernel kernel_ = SarKernel::kFast;
  unsigned threads_ = 1;
  std::vector<double> xs_, ys_;  // hoisted cell coordinates, as sar_heatmap
  std::vector<double> re_, im_;  // per-cell partial sums, row-major
  std::size_t count_ = 0;
};

}  // namespace rfly::localize
