#include "localize/sar.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/constants.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfly::localize {

namespace {
// SAR telemetry. The heatmap loop is the hottest code in the system, so the
// probes sit at chunk granularity: a chunk covers `grain` rows (thousands of
// sincos calls), making the two clock reads + one histogram update noise.
// Chunk timing is split per kernel so a dispatch change shows up in the
// latency buckets, and the dispatch counters record which kernel ran.
obs::Counter& sar_cells() {
  static obs::Counter& c = obs::counter("sar.cells");
  return c;
}
obs::Counter& sar_kernel_exact_calls() {
  static obs::Counter& c = obs::counter("sar.kernel.exact");
  return c;
}
obs::Counter& sar_kernel_fast_calls() {
  static obs::Counter& c = obs::counter("sar.kernel.fast");
  return c;
}
obs::Histogram& sar_chunk_seconds_exact() {
  static obs::Histogram& h = obs::histogram(
      "sar.row_chunk_seconds", obs::HistogramSpec::duration_seconds());
  return h;
}
obs::Histogram& sar_chunk_seconds_fast() {
  static obs::Histogram& h = obs::histogram(
      "sar.row_chunk_seconds.fast", obs::HistogramSpec::duration_seconds());
  return h;
}
// Incremental-search telemetry: samples folded into accumulators (signed
// adds and removes both count — they cost the same), and live estimates
// emitted. Both update at batch granularity, never per cell.
obs::Counter& sar_accumulator_samples() {
  static obs::Counter& c = obs::counter("sar.accumulator.samples");
  return c;
}
obs::Counter& sar_live_estimates() {
  static obs::Counter& c = obs::counter("sar.live.estimates");
  return c;
}
}  // namespace

std::size_t grid_axis_cells(double lo, double hi, double res) {
  const double q = (hi - lo) / res;
  // Forgive a few ULPs below an integer quotient: 6.0/0.02 style divisions
  // land at N - epsilon and the naive floor would drop the final sample.
  // The slack is relative (4 eps), so 299.9 still truncates to 299 and only
  // genuine exact-multiple extents are pulled up.
  const double slack =
      4.0 * std::numeric_limits<double>::epsilon() * std::max(std::fabs(q), 1.0);
  return static_cast<std::size_t>(std::floor(q + slack)) + 1;
}

std::size_t GridSpec::nx() const {
  return grid_axis_cells(x_min, x_max, resolution_m);
}

std::size_t GridSpec::ny() const {
  return grid_axis_cells(y_min, y_max, resolution_m);
}

double Heatmap::max_value() const {
  double best = 0.0;
  for (double v : values) best = std::max(best, v);
  return best;
}

double sar_projection(const DisentangledSet& set, const channel::Vec3& p,
                      double freq_hz, SarKernel kernel) {
  if (kernel == SarKernel::kFast) {
    return sar_projection(SarGeometry::from(set, freq_hz), p, SarKernel::kFast);
  }
  // Exact kernel: the seed loop, bit-identical — sequential sample order,
  // libm sincos through cis().
  const double k = kTwoPi * freq_hz * 2.0 / kSpeedOfLight;  // round trip
  cdouble acc{0.0, 0.0};
  for (std::size_t l = 0; l < set.channels.size(); ++l) {
    const double d = set.positions[l].distance_to(p);
    acc += set.channels[l] * cis(k * d);
  }
  return std::abs(acc);
}

double sar_projection(const SarGeometry& geo, const channel::Vec3& p,
                      SarKernel kernel) {
  if (kernel == SarKernel::kFast) {
    SarKernelArgs args;
    args.k = geo.k;
    args.px = geo.px.data();
    args.py = geo.py.data();
    args.pz = geo.pz.data();
    args.hre = geo.hre.data();
    args.him = geo.him.data();
    args.count = geo.size();
    return sar_kernel_active().projection(args, p.x, p.y, p.z);
  }
  // Same arithmetic as the set-based exact path: distance through
  // Vec3::distance_to and a complex multiply-accumulate, so the two exact
  // overloads agree bit-for-bit.
  cdouble acc{0.0, 0.0};
  for (std::size_t l = 0; l < geo.size(); ++l) {
    const channel::Vec3 pos{geo.px[l], geo.py[l], geo.pz[l]};
    const double d = pos.distance_to(p);
    acc += cdouble{geo.hre[l], geo.him[l]} * cis(geo.k * d);
  }
  return std::abs(acc);
}

SarGeometry SarGeometry::from(const DisentangledSet& set, double freq_hz) {
  SarGeometry geo;
  geo.k = kTwoPi * freq_hz * 2.0 / kSpeedOfLight;
  const std::size_t n = set.channels.size();
  geo.px.reserve(n);
  geo.py.reserve(n);
  geo.pz.reserve(n);
  geo.hre.reserve(n);
  geo.him.reserve(n);
  for (std::size_t l = 0; l < n; ++l) {
    geo.px.push_back(set.positions[l].x);
    geo.py.push_back(set.positions[l].y);
    geo.pz.push_back(set.positions[l].z);
    geo.hre.push_back(set.channels[l].real());
    geo.him.push_back(set.channels[l].imag());
  }
  return geo;
}

ExactRowEvaluator::ExactRowEvaluator(double k, const double* px, const double* py,
                                     const double* pz, std::size_t samples,
                                     const double* const* hre,
                                     const double* const* him, std::size_t tags)
    : k_(k),
      px_(px),
      py_(py),
      pz_(pz),
      samples_(samples),
      hre_(hre, hre + tags),
      him_(him, him + tags) {}

ExactRowEvaluator::ExactRowEvaluator(const SarGeometry& geo)
    : k_(geo.k),
      px_(geo.px.data()),
      py_(geo.py.data()),
      pz_(geo.pz.data()),
      samples_(geo.size()),
      hre_{geo.hre.data()},
      him_{geo.him.data()} {}

void ExactRowEvaluator::evaluate(const double* xs, std::size_t nx, double y,
                                 double z) {
  const std::size_t tags = hre_.size();
  nx_ = nx;
  re_.assign(tags * nx, 0.0);
  im_.assign(tags * nx, 0.0);
  double arg[kBlockCells] = {}, c[kBlockCells] = {}, s[kBlockCells] = {};
  for (std::size_t b0 = 0; b0 < nx; b0 += kBlockCells) {
    const std::size_t n = std::min(kBlockCells, nx - b0);
    const double* x = xs + b0;
    for (std::size_t l = 0; l < samples_; ++l) {
      // Distance pass: the seed's expression and association order. Never
      // hoist dy*dy + dz*dz as one partial sum: that reassociates d.
      const double dy = y - py_[l];
      const double dz = z - pz_[l];
      for (std::size_t i = 0; i < n; ++i) {
        const double dx = x[i] - px_[l];
        arg[i] = k_ * std::sqrt(dx * dx + dy * dy + dz * dz);
      }
      // Sincos pass: independent libm calls (GCC fuses each cos/sin pair
      // into one sincos), free to overlap across cells.
      for (std::size_t i = 0; i < n; ++i) {
        c[i] = std::cos(arg[i]);
        s[i] = std::sin(arg[i]);
      }
      // Accumulate pass: per tag, element-wise across the block's cells.
      for (std::size_t t = 0; t < tags; ++t) {
        const double hr = hre_[t][l];
        const double hi = him_[t][l];
        double* re = re_.data() + t * nx + b0;
        double* im = im_.data() + t * nx + b0;
        for (std::size_t i = 0; i < n; ++i) {
          re[i] += hr * c[i] - hi * s[i];
          im[i] += hr * s[i] + hi * c[i];
        }
      }
    }
  }
}

Heatmap sar_heatmap(const DisentangledSet& set, const GridSpec& grid, double freq_hz,
                    double z_plane, unsigned threads, SarKernel kernel) {
  obs::Span heatmap_span("sar.heatmap");
  const bool fast = kernel == SarKernel::kFast;
  (fast ? sar_kernel_fast_calls() : sar_kernel_exact_calls()).inc();

  Heatmap map;
  map.grid = grid;
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();
  map.values.assign(nx * ny, 0.0);
  const SarGeometry geo = SarGeometry::from(set, freq_hz);
  const std::size_t L = geo.size();

  // Hoisted cell coordinates, shared by both kernels: xs was previously
  // recomputed per cell (grid.x_at in the inner loop); the array holds the
  // identical x_min + ix*res values, so the exact kernel stays bit-exact.
  std::vector<double> xs(nx), ys(ny);
  for (std::size_t ix = 0; ix < nx; ++ix) xs[ix] = grid.x_at(ix);
  for (std::size_t iy = 0; iy < ny; ++iy) ys[iy] = grid.y_at(iy);

  // Row shards: each cell's sum over l runs in a fixed order and lands in
  // its own slot, so any sharding of the rows yields the same heatmap —
  // with either kernel. Grain of a few rows keeps chunks ~10x the thread
  // count for balance without queue churn.
  const std::size_t grain = std::max<std::size_t>(1, ny / 64);
  parallel_for(
      0, ny, grain,
      [&](std::size_t row_begin, std::size_t row_end) {
        std::uint64_t chunk_start_ns = 0;
        if constexpr (obs::kEnabled) chunk_start_ns = obs::monotonic_ns();
        if (fast) {
          // Per-worker scratch for the row's dy^2+dz^2 partials; sized by
          // trajectory length, allocated once per chunk (a chunk covers
          // grain rows of nx cells, so the alloc is noise).
          std::vector<double> scratch(L);
          SarKernelArgs args;
          args.k = geo.k;
          args.px = geo.px.data();
          args.py = geo.py.data();
          args.pz = geo.pz.data();
          args.hre = geo.hre.data();
          args.him = geo.him.data();
          args.count = L;
          args.xs = xs.data();
          args.nx = nx;
          args.ys = ys.data();
          args.z = z_plane;
          args.values = map.values.data();
          args.scratch = scratch.data();
          sar_kernel_active().rows(args, row_begin, row_end);
        } else {
          ExactRowEvaluator eval(geo);
          for (std::size_t iy = row_begin; iy < row_end; ++iy) {
            eval.evaluate(xs.data(), nx, ys[iy], z_plane);
            double* row = map.values.data() + iy * nx;
            for (std::size_t ix = 0; ix < nx; ++ix) {
              row[ix] = std::abs(cdouble{eval.re(0)[ix], eval.im(0)[ix]});
            }
          }
        }
        if constexpr (obs::kEnabled) {
          (fast ? sar_chunk_seconds_fast() : sar_chunk_seconds_exact())
              .observe(static_cast<double>(obs::monotonic_ns() - chunk_start_ns) *
                       1e-9);
        }
        sar_cells().add((row_end - row_begin) * nx);
      },
      threads_for_work(threads, nx * ny * L));
  return map;
}

SharedTrajectory SharedTrajectory::from(const std::vector<channel::Vec3>& positions) {
  SharedTrajectory traj;
  const std::size_t n = positions.size();
  traj.px.reserve(n);
  traj.py.reserve(n);
  traj.pz.reserve(n);
  for (const auto& p : positions) {
    traj.px.push_back(p.x);
    traj.py.push_back(p.y);
    traj.pz.push_back(p.z);
  }
  return traj;
}

SharedGrid SharedGrid::from(const GridSpec& grid) {
  SharedGrid out;
  out.spec = grid;
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();
  out.xs.resize(nx);
  out.ys.resize(ny);
  for (std::size_t ix = 0; ix < nx; ++ix) out.xs[ix] = grid.x_at(ix);
  for (std::size_t iy = 0; iy < ny; ++iy) out.ys[iy] = grid.y_at(iy);
  return out;
}

std::string trajectory_key(const std::vector<channel::Vec3>& positions) {
  static_assert(sizeof(channel::Vec3) == 3 * sizeof(double));
  return {reinterpret_cast<const char*>(positions.data()),
          positions.size() * sizeof(channel::Vec3)};
}

std::string grid_key(const GridSpec& spec) {
  const double fields[] = {spec.x_min, spec.x_max, spec.y_min, spec.y_max,
                           spec.resolution_m};
  return {reinterpret_cast<const char*>(fields), sizeof fields};
}

ContentCache<SharedTrajectory>& global_trajectory_cache() {
  static ContentCache<SharedTrajectory> cache("geometry_cache",
                                              kDefaultCacheCapacity);
  return cache;
}

ContentCache<SharedGrid>& global_grid_cache() {
  static ContentCache<SharedGrid> cache("geometry_cache", kDefaultCacheCapacity);
  return cache;
}

void sar_heatmap_multi(const SharedTrajectory& trajectory, const SharedGrid& grid,
                       double freq_hz, double z_plane, const MultiTagSlot* slots,
                       std::size_t count, unsigned threads, SarKernel kernel) {
  if (count == 0) return;
  obs::Span heatmap_span("sar.heatmap_multi");
  const bool fast = kernel == SarKernel::kFast;
  (fast ? sar_kernel_fast_calls() : sar_kernel_exact_calls()).inc();

  const double k = kTwoPi * freq_hz * 2.0 / kSpeedOfLight;  // round trip
  const std::size_t L = trajectory.size();
  const std::size_t nx = grid.spec.nx();
  const std::size_t ny = grid.spec.ny();

  // Flat per-tag pointer tables for the kernel ABI (plain pointers only in
  // the per-ISA regions).
  std::vector<const double*> hre(count), him(count);
  std::vector<double*> values(count);
  for (std::size_t t = 0; t < count; ++t) {
    hre[t] = slots[t].hre;
    him[t] = slots[t].him;
    values[t] = slots[t].values;
  }

  // Same row sharding as sar_heatmap: each tag's cell accumulates its sum
  // over l in the same fixed order into its own slot, so the planes are
  // bit-identical at every thread count — and bit-identical to per-tag
  // sar_heatmap calls (the per-term arithmetic below matches the single-tag
  // loops exactly; only the loop nesting is blocked).
  const std::size_t grain = std::max<std::size_t>(1, ny / 64);
  parallel_for(
      0, ny, grain,
      [&](std::size_t row_begin, std::size_t row_end) {
        std::uint64_t chunk_start_ns = 0;
        if constexpr (obs::kEnabled) chunk_start_ns = obs::monotonic_ns();
        if (fast) {
          // Scratch: yz2 hoist plus per-tag lane accumulators (kLanes = 8
          // in sar_kernel_impl.inc).
          std::vector<double> scratch(L + 2 * count * 8);
          SarKernelArgs args;
          args.k = k;
          args.px = trajectory.px.data();
          args.py = trajectory.py.data();
          args.pz = trajectory.pz.data();
          args.count = L;
          args.xs = grid.xs.data();
          args.nx = nx;
          args.ys = grid.ys.data();
          args.z = z_plane;
          args.scratch = scratch.data();
          args.hre_tags = hre.data();
          args.him_tags = him.data();
          args.values_tags = values.data();
          args.tags = count;
          sar_kernel_active().rows_multi(args, row_begin, row_end);
        } else {
          // One distance and sincos per (cell, sample), reused by every
          // tag; each tag's sums are term for term sar_heatmap's, so each
          // plane is bit-identical to a single-tag sweep.
          ExactRowEvaluator eval(k, trajectory.px.data(), trajectory.py.data(),
                                 trajectory.pz.data(), L, hre.data(),
                                 him.data(), count);
          for (std::size_t iy = row_begin; iy < row_end; ++iy) {
            eval.evaluate(grid.xs.data(), nx, grid.ys[iy], z_plane);
            for (std::size_t t = 0; t < count; ++t) {
              double* row = values[t] + iy * nx;
              const double* re = eval.re(t);
              const double* im = eval.im(t);
              for (std::size_t ix = 0; ix < nx; ++ix) {
                row[ix] = std::abs(cdouble{re[ix], im[ix]});
              }
            }
          }
        }
        if constexpr (obs::kEnabled) {
          (fast ? sar_chunk_seconds_fast() : sar_chunk_seconds_exact())
              .observe(static_cast<double>(obs::monotonic_ns() - chunk_start_ns) *
                       1e-9);
        }
        sar_cells().add((row_end - row_begin) * nx * count);
      },
      threads_for_work(threads, nx * ny * L * count));
}

SarAccumulator::SarAccumulator(const GridSpec& grid, double freq_hz,
                               double z_plane, SarKernel kernel,
                               unsigned threads)
    : grid_(grid),
      freq_hz_(freq_hz),
      z_plane_(z_plane),
      kernel_(kernel),
      threads_(threads) {
  const std::size_t nx = grid_.nx();
  const std::size_t ny = grid_.ny();
  xs_.resize(nx);
  ys_.resize(ny);
  for (std::size_t ix = 0; ix < nx; ++ix) xs_[ix] = grid_.x_at(ix);
  for (std::size_t iy = 0; iy < ny; ++iy) ys_[iy] = grid_.y_at(iy);
  re_.assign(nx * ny, 0.0);
  im_.assign(nx * ny, 0.0);
}

void SarAccumulator::apply(const DisentangledSet& set, double sign) {
  if (set.channels.empty()) return;
  const SarGeometry geo = SarGeometry::from(set, freq_hz_);
  const std::size_t L = geo.size();
  const std::size_t nx = xs_.size();
  const std::size_t ny = ys_.size();
  const unsigned threads = clamp_thread_count(threads_);
  const bool fast = kernel_ == SarKernel::kFast;
  // Same row sharding as sar_heatmap: each cell's fold runs whole, in a
  // fixed order, into its own slot, so the planes are bit-identical at
  // every thread count.
  const std::size_t grain = std::max<std::size_t>(1, ny / 64);
  parallel_for(
      0, ny, grain,
      [&](std::size_t row_begin, std::size_t row_end) {
        if (fast) {
          std::vector<double> scratch(L);
          SarKernelArgs args;
          args.k = geo.k;
          args.px = geo.px.data();
          args.py = geo.py.data();
          args.pz = geo.pz.data();
          args.hre = geo.hre.data();
          args.him = geo.him.data();
          args.count = L;
          args.xs = xs_.data();
          args.nx = nx;
          args.ys = ys_.data();
          args.z = z_plane_;
          args.scratch = scratch.data();
          args.acc_re = re_.data();
          args.acc_im = im_.data();
          args.sign = sign;
          sar_kernel_active().accumulate(args, row_begin, row_end);
        } else {
          // The batch folds in the evaluator; the single plane update per
          // cell is acc += sign * block (exact for sign = +/-1), so any
          // grouping of adds replays the batch loop's rounding sequence.
          ExactRowEvaluator eval(geo);
          for (std::size_t iy = row_begin; iy < row_end; ++iy) {
            eval.evaluate(xs_.data(), nx, ys_[iy], z_plane_);
            double* acc_re = re_.data() + iy * nx;
            double* acc_im = im_.data() + iy * nx;
            for (std::size_t ix = 0; ix < nx; ++ix) {
              acc_re[ix] += sign * eval.re(0)[ix];
              acc_im[ix] += sign * eval.im(0)[ix];
            }
          }
        }
        sar_cells().add((row_end - row_begin) * nx);
      },
      threads_for_work(threads, nx * ny * L));
  sar_accumulator_samples().add(L);
  if (sign > 0.0) {
    count_ += L;
  } else {
    count_ -= std::min(count_, L);
  }
}

void SarAccumulator::add_measurements(const DisentangledSet& set) {
  apply(set, 1.0);
}

void SarAccumulator::remove_measurements(const DisentangledSet& set) {
  apply(set, -1.0);
}

void SarAccumulator::add_measurement(const channel::Vec3& position,
                                     cdouble channel) {
  DisentangledSet one;
  one.positions.push_back(position);
  one.channels.push_back(channel);
  apply(one, 1.0);
}

Heatmap SarAccumulator::finalize() const {
  Heatmap map;
  map.grid = grid_;
  const std::size_t nx = xs_.size();
  const std::size_t ny = ys_.size();
  map.values.assign(nx * ny, 0.0);
  if (kernel_ == SarKernel::kFast) {
    SarKernelArgs args;
    args.nx = nx;
    args.values = map.values.data();
    args.acc_re = const_cast<double*>(re_.data());
    args.acc_im = const_cast<double*>(im_.data());
    sar_kernel_active().magnitudes(args, 0, ny);
  } else {
    // Same expression as the batch exact loop's store, on the same bits.
    for (std::size_t i = 0; i < map.values.size(); ++i) {
      map.values[i] = std::abs(cdouble{re_[i], im_[i]});
    }
  }
  return map;
}

LiveEstimate SarAccumulator::estimate(std::size_t expected_measurements) const {
  LiveEstimate est;
  est.measurements = count_;
  const std::size_t nx = xs_.size();
  const std::size_t cells = re_.size();
  if (cells == 0) return est;
  // First strict maximum in row-major (y then x) order — the batch
  // localizer's tie rule — plus the running sum for the contrast figure.
  double peak = -1.0;
  std::size_t best = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    const double v = std::abs(cdouble{re_[i], im_[i]});
    sum += v;
    if (v > peak) {
      peak = v;
      best = i;
    }
  }
  est.x = xs_[best % nx];
  est.y = ys_[best / nx];
  est.peak_value = peak;
  if (peak > 0.0) {
    const double mean = sum / static_cast<double>(cells);
    est.confidence = std::max(0.0, 1.0 - mean / peak);
  }
  if (expected_measurements > 0) {
    est.coverage = std::min(
        1.0, static_cast<double>(count_) /
                 static_cast<double>(expected_measurements));
  } else {
    est.coverage = count_ > 0 ? 1.0 : 0.0;
  }
  sar_live_estimates().inc();
  return est;
}

}  // namespace rfly::localize
