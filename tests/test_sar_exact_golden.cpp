// Golden tests for the exact SAR kernel's row evaluator (ExactRowEvaluator
// in sar.h). The reference below is the per-cell exact loop the evaluator
// replaced — one cell at a time, one serial sqrt -> cos/sin -> accumulate
// chain per sample — kept here verbatim so every plane the library produces
// can be compared with memcmp:
//
//   - sar_heatmap over grids from 1x1 to 121x55 cells, 1 to 80 samples,
//     a raised plane (z != 0), at 1, 2 and 8 threads;
//   - sar_heatmap_multi with 1 to 5 tags of distinct weights, per plane;
//   - SarAccumulator partial sums and finalize() under several add/remove
//     groupings (each group folds from zero, then acc += sign * group);
//   - the evaluator row against per-point sar_projection, the arithmetic
//     the 2D refinement patches used before they moved onto the evaluator.
//
// Runs under the `parallel` label (TSAN and ASan+UBSan trees).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "localize/sar.h"

namespace rfly::localize {
namespace {

constexpr double kFreq = 916e6;
constexpr double kRes = 0.03;
constexpr double kZ = 0.35;
const std::size_t kNx[] = {1, 2, 7, 61, 121};
const std::size_t kNy[] = {1, 3, 55};
const std::size_t kSamples[] = {1, 3, 40, 80};
const unsigned kThreadCounts[] = {1, 2, 8};

/// A jittered pass above the grid with random complex weights.
DisentangledSet random_set(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  DisentangledSet set;
  for (std::size_t l = 0; l < n; ++l) {
    const double u = n > 1 ? static_cast<double>(l) / static_cast<double>(n - 1) : 0.5;
    set.positions.push_back({-0.5 + 4.0 * u + rng.gaussian(0.0, 0.01),
                             2.0 + rng.gaussian(0.0, 0.05),
                             1.0 + rng.gaussian(0.0, 0.01)});
    set.channels.push_back(std::pow(10.0, rng.uniform(-7.0, -5.0)) *
                           cis(rng.phase()));
  }
  return set;
}

GridSpec grid_of(std::size_t nx, std::size_t ny) {
  return {-0.2, -0.2 + static_cast<double>(nx - 1) * kRes, 0.4,
          0.4 + static_cast<double>(ny - 1) * kRes, kRes};
}

/// The per-cell exact loop, as sar_heatmap, sar_heatmap_multi and
/// SarAccumulator each ran it before the row evaluator: per-cell sums.
void reference_sums(const SarGeometry& geo, const GridSpec& grid, double z,
                    std::vector<double>& re_out, std::vector<double>& im_out) {
  const std::size_t nx = grid.nx();
  const std::size_t ny = grid.ny();
  re_out.assign(nx * ny, 0.0);
  im_out.assign(nx * ny, 0.0);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    const double y = grid.y_at(iy);
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double x = grid.x_at(ix);
      double re = 0.0, im = 0.0;
      for (std::size_t l = 0; l < geo.size(); ++l) {
        const double dx = x - geo.px[l];
        const double dy = y - geo.py[l];
        const double dz = z - geo.pz[l];
        const double d = std::sqrt(dx * dx + dy * dy + dz * dz);
        const double c = std::cos(geo.k * d);
        const double s = std::sin(geo.k * d);
        re += geo.hre[l] * c - geo.him[l] * s;
        im += geo.hre[l] * s + geo.him[l] * c;
      }
      re_out[iy * nx + ix] = re;
      im_out[iy * nx + ix] = im;
    }
  }
}

std::vector<double> reference_plane(const SarGeometry& geo, const GridSpec& grid,
                                    double z) {
  std::vector<double> re, im;
  reference_sums(geo, grid, z, re, im);
  std::vector<double> values(re.size());
  for (std::size_t i = 0; i < re.size(); ++i) {
    values[i] = std::abs(cdouble{re[i], im[i]});
  }
  return values;
}

bool same_bits(const std::vector<double>& a, const double* b, std::size_t n) {
  return a.size() == n && std::memcmp(a.data(), b, n * sizeof(double)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return same_bits(a, b.data(), b.size());
}

TEST(SarExactGolden, HeatmapMatchesPerCellLoop) {
  for (std::size_t L : kSamples) {
    const DisentangledSet set = random_set(100 + L, L);
    const SarGeometry geo = SarGeometry::from(set, kFreq);
    for (std::size_t nx : kNx) {
      for (std::size_t ny : kNy) {
        const GridSpec grid = grid_of(nx, ny);
        ASSERT_EQ(grid.nx(), nx);
        ASSERT_EQ(grid.ny(), ny);
        const std::vector<double> want = reference_plane(geo, grid, kZ);
        for (unsigned threads : kThreadCounts) {
          const Heatmap map =
              sar_heatmap(set, grid, kFreq, kZ, threads, SarKernel::kExact);
          EXPECT_TRUE(same_bits(want, map.values))
              << nx << "x" << ny << " cells, L=" << L << ", " << threads
              << " threads";
        }
      }
    }
  }
}

TEST(SarExactGolden, MultiTagPlanesMatchPerCellLoop) {
  for (std::size_t L : {std::size_t{3}, std::size_t{40}, std::size_t{80}}) {
    const DisentangledSet base = random_set(200 + L, L);
    const SharedTrajectory traj = SharedTrajectory::from(base.positions);
    for (std::size_t nx : {std::size_t{1}, std::size_t{7}, std::size_t{121}}) {
      for (std::size_t ny : kNy) {
        const GridSpec spec = grid_of(nx, ny);
        const SharedGrid grid = SharedGrid::from(spec);
        for (std::size_t tags = 1; tags <= 5; ++tags) {
          // Distinct weights per tag over the shared trajectory.
          std::vector<DisentangledSet> sets(tags);
          std::vector<SarGeometry> geos;
          std::vector<std::vector<double>> wants;
          for (std::size_t t = 0; t < tags; ++t) {
            sets[t] = random_set(300 + 10 * L + t, L);
            sets[t].positions = base.positions;
            geos.push_back(SarGeometry::from(sets[t], kFreq));
            wants.push_back(reference_plane(geos[t], spec, kZ));
          }
          for (unsigned threads : kThreadCounts) {
            std::vector<std::vector<double>> planes(
                tags, std::vector<double>(nx * ny, -1.0));
            std::vector<MultiTagSlot> slots(tags);
            for (std::size_t t = 0; t < tags; ++t) {
              slots[t] = {geos[t].hre.data(), geos[t].him.data(),
                          planes[t].data()};
            }
            sar_heatmap_multi(traj, grid, kFreq, kZ, slots.data(), tags, threads,
                              SarKernel::kExact);
            for (std::size_t t = 0; t < tags; ++t) {
              EXPECT_TRUE(same_bits(wants[t], planes[t]))
                  << "tag " << t << " of " << tags << ", " << nx << "x" << ny
                  << " cells, L=" << L << ", " << threads << " threads";
            }
          }
        }
      }
    }
  }
}

/// The accumulator folds each group from zero and adds it to the plane
/// with the group's sign; `groups` lists [begin, end) sample ranges.
struct Group {
  std::size_t begin, end;
  double sign;
};

DisentangledSet slice(const DisentangledSet& set, std::size_t begin,
                      std::size_t end) {
  DisentangledSet out;
  out.positions.assign(set.positions.begin() + static_cast<long>(begin),
                       set.positions.begin() + static_cast<long>(end));
  out.channels.assign(set.channels.begin() + static_cast<long>(begin),
                      set.channels.begin() + static_cast<long>(end));
  return out;
}

TEST(SarExactGolden, AccumulatorGroupingsMatchPerCellLoop) {
  const std::size_t L = 40;
  const DisentangledSet set = random_set(400, L);
  const std::vector<std::vector<Group>> groupings = {
      {{0, 40, 1.0}},
      {{0, 1, 1.0}, {1, 2, 1.0}, {2, 40, 1.0}},
      {{0, 13, 1.0}, {13, 27, 1.0}, {27, 40, 1.0}},
      {{0, 40, 1.0}, {0, 40, -1.0}},
      {{0, 25, 1.0}, {10, 20, -1.0}, {25, 40, 1.0}},
      {{0, 20, 1.0}, {20, 40, 1.0}, {5, 6, -1.0}, {30, 39, -1.0}},
  };
  for (std::size_t nx : {std::size_t{2}, std::size_t{61}}) {
    for (std::size_t ny : {std::size_t{1}, std::size_t{55}}) {
      const GridSpec grid = grid_of(nx, ny);
      for (std::size_t g = 0; g < groupings.size(); ++g) {
        std::vector<double> want_re(nx * ny, 0.0), want_im(nx * ny, 0.0);
        for (const Group& group : groupings[g]) {
          std::vector<double> re, im;
          reference_sums(SarGeometry::from(slice(set, group.begin, group.end), kFreq),
                         grid, kZ, re, im);
          for (std::size_t i = 0; i < re.size(); ++i) {
            want_re[i] += group.sign * re[i];
            want_im[i] += group.sign * im[i];
          }
        }
        std::vector<double> want_values(nx * ny);
        for (std::size_t i = 0; i < want_values.size(); ++i) {
          want_values[i] = std::abs(cdouble{want_re[i], want_im[i]});
        }
        for (unsigned threads : kThreadCounts) {
          SarAccumulator acc(grid, kFreq, kZ, SarKernel::kExact, threads);
          for (const Group& group : groupings[g]) {
            const DisentangledSet part = slice(set, group.begin, group.end);
            if (group.sign > 0.0) {
              acc.add_measurements(part);
            } else {
              acc.remove_measurements(part);
            }
          }
          EXPECT_TRUE(same_bits(want_re, acc.partial_re()))
              << "grouping " << g << ", " << nx << "x" << ny << ", " << threads
              << " threads";
          EXPECT_TRUE(same_bits(want_im, acc.partial_im()))
              << "grouping " << g << ", " << nx << "x" << ny << ", " << threads
              << " threads";
          EXPECT_TRUE(same_bits(want_values, acc.finalize().values))
              << "grouping " << g << ", " << nx << "x" << ny << ", " << threads
              << " threads";
        }
      }
    }
  }
}

TEST(SarExactGolden, RowEvaluatorMatchesPointProjection) {
  for (std::size_t L : kSamples) {
    const SarGeometry geo = SarGeometry::from(random_set(500 + L, L), kFreq);
    ExactRowEvaluator eval(geo);
    for (std::size_t nx : kNx) {
      // Refinement-patch style coordinates: repeated addition, off-lattice.
      std::vector<double> xs;
      double x = 0.123;
      for (std::size_t ix = 0; ix < nx; ++ix, x += 0.011) xs.push_back(x);
      for (double y : {0.37, 1.91}) {
        eval.evaluate(xs.data(), nx, y, kZ);
        std::vector<double> want(nx), got(nx);
        for (std::size_t ix = 0; ix < nx; ++ix) {
          want[ix] = sar_projection(geo, {xs[ix], y, kZ}, SarKernel::kExact);
          got[ix] = std::abs(cdouble{eval.re(0)[ix], eval.im(0)[ix]});
        }
        EXPECT_TRUE(same_bits(want, got)) << nx << " cells, L=" << L << ", y=" << y;
      }
    }
  }
}

}  // namespace
}  // namespace rfly::localize
