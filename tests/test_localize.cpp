#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "channel/path_loss.h"
#include "common/rng.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"
#include "sim/pipeline.h"
#include "sim/scenario.h"

namespace rfly::localize {
namespace {

constexpr double kF2 = 916e6;  // f1 + 1 MHz shift

using channel::Vec3;

/// One-way free-space channel between two points.
cdouble one_way(const Vec3& a, const Vec3& b, double f) {
  return channel::propagation_coefficient(a.distance_to(b), f);
}

/// Synthesize measurements for a tag seen through the relay along a
/// trajectory, optionally with a multipath ghost via an image tag.
MeasurementSet synthesize(const std::vector<Vec3>& trajectory, const Vec3& tag,
                          const Vec3& reader, double ghost_gain = 0.0,
                          const Vec3& image_tag = {}, double noise = 0.0,
                          Rng* rng = nullptr) {
  MeasurementSet set;
  const cdouble hw = cis(0.7);  // constant relay hardware phase
  for (const auto& p : trajectory) {
    const cdouble h1 = one_way(reader, p, 915e6);
    cdouble h2 = one_way(p, tag, kF2);
    if (ghost_gain > 0.0) h2 += ghost_gain * one_way(p, image_tag, kF2);
    RelayMeasurement m;
    m.relay_position = p;
    m.embedded_channel = h1 * h1 * 1e-3 * hw;
    m.target_channel = h1 * h1 * h2 * h2 * hw;
    if (noise > 0.0 && rng != nullptr) {
      m.target_channel +=
          std::abs(m.target_channel) * noise *
          cdouble{rng->gaussian(), rng->gaussian()};
    }
    set.push_back(m);
  }
  return set;
}

TEST(Disentangle, RemovesReaderRelayHalfLink) {
  const auto traj = drone::linear_trajectory({4, 3, 1}, {6, 3, 1}, 20);
  const Vec3 tag{5, 0, 0};
  const auto set = synthesize(traj, tag, {0, 0, 1});
  const auto iso = disentangle(set);
  ASSERT_EQ(iso.channels.size(), 20u);
  // The isolated channel must equal h2^2 / 1e-3 : same phase as h2^2.
  for (std::size_t i = 0; i < iso.channels.size(); ++i) {
    const cdouble h2 = one_way(traj[i], tag, kF2);
    EXPECT_NEAR(phase_distance(std::arg(iso.channels[i]), std::arg(h2 * h2)), 0.0,
                1e-6);
  }
}

TEST(Disentangle, DropsWeakEmbeddedMeasurements) {
  MeasurementSet set(3);
  set[0].embedded_channel = {1e-3, 0};
  set[1].embedded_channel = {0.0, 0.0};  // dead
  set[2].embedded_channel = {1e-3, 0};
  const auto iso = disentangle(set);
  EXPECT_EQ(iso.channels.size(), 2u);
}

TEST(GridSpec, Dimensions) {
  GridSpec g;
  g.x_min = 0;
  g.x_max = 1;
  g.y_min = 0;
  g.y_max = 0.5;
  g.resolution_m = 0.1;
  EXPECT_EQ(g.nx(), 11u);
  EXPECT_EQ(g.ny(), 6u);
  EXPECT_NEAR(g.x_at(10), 1.0, 1e-9);
}

TEST(Sar, PeakAtTagLocation) {
  const auto traj = drone::linear_trajectory({4, 3, 1}, {6, 3, 1}, 30);
  const Vec3 tag{5.0, 0.5, 0.0};
  const auto set = synthesize(traj, tag, {0, 0, 1});
  const auto iso = disentangle(set);

  GridSpec grid;
  grid.x_min = 3;
  grid.x_max = 7;
  grid.y_min = -1;
  grid.y_max = 2;
  grid.resolution_m = 0.02;
  const auto map = sar_heatmap(iso, grid, kF2);
  const auto peaks = find_peaks(map, 0.9);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(peaks.front().x, tag.x, 0.06);
  EXPECT_NEAR(peaks.front().y, tag.y, 0.06);
}

TEST(Sar, ProjectionConsistentWithHeatmap) {
  const auto traj = drone::linear_trajectory({4, 3, 1}, {6, 3, 1}, 10);
  const auto set = synthesize(traj, {5, 0, 0}, {0, 0, 1});
  const auto iso = disentangle(set);
  GridSpec grid;
  grid.x_min = 4.9;
  grid.x_max = 5.1;
  grid.y_min = -0.1;
  grid.y_max = 0.1;
  grid.resolution_m = 0.1;
  const auto map = sar_heatmap(iso, grid, kF2);
  EXPECT_NEAR(map.at(1, 1), sar_projection(iso, {5.0, 0.0, 0.0}, kF2), 1e-9);
}

TEST(Sar, LargerApertureNarrowerPeak) {
  const Vec3 tag{5, 0, 0};
  auto peak_width = [&](double aperture) {
    const auto traj = drone::linear_trajectory({5 - aperture / 2, 3, 1},
                                               {5 + aperture / 2, 3, 1}, 40);
    const auto iso = disentangle(synthesize(traj, tag, {0, 0, 1}));
    // Measure the mainlobe width along x at the tag's y.
    const double peak = sar_projection(iso, tag, kF2);
    double width = 0.0;
    for (double dx = 0.0; dx < 1.0; dx += 0.01) {
      if (sar_projection(iso, {tag.x + dx, tag.y, 0}, kF2) < peak / 2.0) {
        width = dx;
        break;
      }
    }
    return width;
  };
  EXPECT_LT(peak_width(2.0), peak_width(0.5));
}

TEST(Peaks, FindLocalMaxima) {
  // Hand-built heatmap with two bumps.
  GridSpec grid;
  grid.x_min = 0;
  grid.x_max = 1.0;
  grid.y_min = 0;
  grid.y_max = 1.0;
  grid.resolution_m = 0.1;
  Heatmap map;
  map.grid = grid;
  map.values.assign(grid.nx() * grid.ny(), 0.0);
  map.values[3 * grid.nx() + 3] = 1.0;
  map.values[7 * grid.nx() + 8] = 0.8;
  const auto peaks = find_peaks(map, 0.5);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_DOUBLE_EQ(peaks[0].value, 1.0);
  EXPECT_DOUBLE_EQ(peaks[1].value, 0.8);
}

TEST(Peaks, ThresholdFiltersWeakMaxima) {
  GridSpec grid;
  grid.x_min = 0;
  grid.x_max = 1.0;
  grid.y_min = 0;
  grid.y_max = 1.0;
  grid.resolution_m = 0.1;
  Heatmap map;
  map.grid = grid;
  map.values.assign(grid.nx() * grid.ny(), 0.0);
  map.values[3 * grid.nx() + 3] = 1.0;
  map.values[7 * grid.nx() + 8] = 0.3;  // below 0.5 threshold
  EXPECT_EQ(find_peaks(map, 0.5).size(), 1u);
}

TEST(Peaks, NearestToTrajectoryRejectsGhost) {
  // Ghost peak is stronger but further from the flight path.
  std::vector<Peak> candidates{{5.0, 4.0, 1.0, 0.0},   // ghost (stronger)
                               {5.0, 1.0, 0.8, 0.0}};  // true tag
  const auto traj = drone::linear_trajectory({4, 0, 1}, {6, 0, 1}, 5);
  const auto highest = select_peak(candidates, PeakSelection::kHighest, traj);
  const auto nearest =
      select_peak(candidates, PeakSelection::kNearestToTrajectory, traj);
  EXPECT_DOUBLE_EQ(highest.y, 4.0);
  EXPECT_DOUBLE_EQ(nearest.y, 1.0);
}

TEST(Peaks, EmptyCandidatesYieldZeroPeak) {
  const auto p = select_peak({}, PeakSelection::kHighest, {});
  EXPECT_DOUBLE_EQ(p.value, 0.0);
}

/// The full-grid watershed sweep find_peaks ran before it learned to sort
/// and sweep only the cells that can decide a reported peak. Kept as the
/// golden reference: on maps with distinct values both must agree field
/// for field.
std::vector<Peak> reference_find_peaks(const Heatmap& map, double threshold_fraction,
                                       double prominence_fraction) {
  const std::size_t nx = map.grid.nx();
  const std::size_t ny = map.grid.ny();
  const std::size_t n = nx * ny;
  if (n == 0) return {};
  const double global_max = map.max_value();
  if (global_max <= 0.0) return {};

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return map.values[a] > map.values[b];
  });

  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  std::vector<bool> active(n, false);
  std::vector<std::size_t> peak_cell(n, 0);
  std::vector<double> peak_value(n, 0.0);
  std::vector<double> prominence(n, -1.0);

  for (std::size_t cell : order) {
    const double v = map.values[cell];
    std::vector<std::size_t> roots;
    const std::size_t ix = cell % nx;
    const std::size_t iy = cell / nx;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const auto jx = static_cast<long>(ix) + dx;
        const auto jy = static_cast<long>(iy) + dy;
        if (jx < 0 || jy < 0 || jx >= static_cast<long>(nx) ||
            jy >= static_cast<long>(ny)) {
          continue;
        }
        const std::size_t nb =
            static_cast<std::size_t>(jy) * nx + static_cast<std::size_t>(jx);
        if (!active[nb]) continue;
        const std::size_t r = find(nb);
        if (std::find(roots.begin(), roots.end(), r) == roots.end()) {
          roots.push_back(r);
        }
      }
    }

    active[cell] = true;
    if (roots.empty()) {
      peak_cell[cell] = cell;
      peak_value[cell] = v;
      continue;
    }
    std::size_t best = roots.front();
    for (std::size_t r : roots) {
      if (peak_value[r] > peak_value[best]) best = r;
    }
    for (std::size_t r : roots) {
      if (r == best) continue;
      prominence[peak_cell[r]] = peak_value[r] - v;
      parent[r] = best;
    }
    parent[cell] = best;
  }

  const std::size_t global_root = find(order.front());
  prominence[peak_cell[global_root]] = peak_value[global_root];

  const double value_floor = threshold_fraction * global_max;
  std::vector<Peak> peaks;
  for (std::size_t cell = 0; cell < n; ++cell) {
    if (prominence[cell] < 0.0) continue;
    const double v = map.values[cell];
    if (v < value_floor || prominence[cell] < prominence_fraction * v) continue;
    Peak p;
    p.x = map.grid.x_at(cell % nx);
    p.y = map.grid.y_at(cell / nx);
    p.value = v;
    p.prominence = prominence[cell];
    peaks.push_back(p);
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });
  return peaks;
}

/// find_peaks against the reference over a sweep of thresholds, plus the
/// caller's own.
void expect_peaks_match_reference(const Heatmap& map, const std::string& where,
                                  double own_threshold = 0.5) {
  for (double threshold : {own_threshold, 0.0, 0.3, 0.9, 1.0, 1.5}) {
    for (double prominence : {0.0, 0.4, 1.0}) {
      const auto expected = reference_find_peaks(map, threshold, prominence);
      const auto actual = find_peaks(map, threshold, prominence);
      const std::string at = where + " threshold " + std::to_string(threshold) +
                             " prominence " + std::to_string(prominence);
      ASSERT_EQ(expected.size(), actual.size()) << at;
      for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(expected[k].x, actual[k].x) << at << " peak " << k;
        EXPECT_EQ(expected[k].y, actual[k].y) << at << " peak " << k;
        EXPECT_EQ(expected[k].value, actual[k].value) << at << " peak " << k;
        EXPECT_EQ(expected[k].prominence, actual[k].prominence) << at << " peak " << k;
      }
    }
  }
}

Heatmap blank_map(std::size_t nx, std::size_t ny) {
  Heatmap map;
  map.grid.x_min = 0.0;
  map.grid.x_max = 0.1 * static_cast<double>(nx - 1);
  map.grid.y_min = 0.0;
  map.grid.y_max = 0.1 * static_cast<double>(ny - 1);
  map.grid.resolution_m = 0.1;
  map.values.assign(map.grid.nx() * map.grid.ny(), 0.0);
  return map;
}

TEST(PeaksGolden, MatchesFullSweepOnRandomDistinctMaps) {
  // White noise (a random permutation of distinct levels: many summits,
  // deep merging) and smooth bumps with a distinct jitter, over grid
  // shapes down to a single row, column and cell.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 9}, {9, 1}, {2, 2}, {7, 5}, {40, 30}, {64, 48}};
  Rng rng(4242);
  for (const auto& [nx, ny] : shapes) {
    for (int trial = 0; trial < 4; ++trial) {
      Heatmap map = blank_map(nx, ny);
      const std::size_t n = map.values.size();
      ASSERT_EQ(n, nx * ny);
      std::vector<std::size_t> levels(n);
      std::iota(levels.begin(), levels.end(), std::size_t{1});
      for (std::size_t i = n; i > 1; --i) {
        std::swap(levels[i - 1], levels[static_cast<std::size_t>(
                                     rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
      }
      const std::string where = std::to_string(nx) + "x" + std::to_string(ny) +
                                " trial " + std::to_string(trial);
      for (std::size_t i = 0; i < n; ++i) {
        map.values[i] = static_cast<double>(levels[i]);
      }
      expect_peaks_match_reference(map, "noise " + where);

      std::vector<std::array<double, 4>> bumps(3 + static_cast<std::size_t>(trial));
      for (auto& b : bumps) {
        b = {rng.uniform(0.0, static_cast<double>(nx)),
             rng.uniform(0.0, static_cast<double>(ny)), rng.uniform(0.2, 1.0),
             rng.uniform(1.0, 6.0)};
      }
      for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(i % nx);
        const double y = static_cast<double>(i / nx);
        double v = 1e-9 * static_cast<double>(levels[i]);
        for (const auto& b : bumps) {
          const double d2 = (x - b[0]) * (x - b[0]) + (y - b[1]) * (y - b[1]);
          v += b[2] * std::exp(-d2 / (2.0 * b[3] * b[3]));
        }
        map.values[i] = v;
      }
      expect_peaks_match_reference(map, "bumps " + where);
    }
  }
}

TEST(PeaksGolden, MatchesFullSweepOnPresetHeatmaps) {
  // Heatmaps exactly as seeded preset missions hand them to peak
  // extraction: the deferred half-link sets of warehouse and through-wall
  // missions, imaged over their localizer grids.
  for (const char* name : {"warehouse", "through_wall"}) {
    auto scenario = sim::preset(name);
    ASSERT_TRUE(scenario.ok()) << name;
    const sim::MissionInputs inputs = sim::materialize(*scenario);
    for (std::uint64_t seed : {3u, 17u}) {
      std::vector<sim::DeferredLocalize> tasks;
      const auto run = sim::run_mission_pipeline(
          inputs.config, inputs.environment, inputs.reader_position, inputs.plan,
          inputs.tags, inputs.db, seed, {}, &tasks);
      ASSERT_TRUE(run.ok()) << name;
      ASSERT_FALSE(tasks.empty()) << name;
      if (tasks.size() > 4) tasks.resize(4);
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto& t = tasks[i];
        const Heatmap map =
            sar_heatmap(t.half_link, localize_scan_grid(t.config), t.config.freq_hz,
                        t.config.z_plane_m, 1, t.config.kernel);
        const std::string where = std::string(name) + " seed " +
                                  std::to_string(seed) + " task " + std::to_string(i);
        expect_peaks_match_reference(map, where, t.config.peak_threshold_fraction);
      }
    }
  }
}

TEST(Localizer, EndToEndCleanScene) {
  const auto traj = drone::linear_trajectory({4, 2, 1}, {6, 2, 1}, 40);
  const Vec3 tag{5.2, 0.3, 0};
  const auto set = synthesize(traj, tag, {0, 0, 1});

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 3;
  cfg.grid.x_max = 7;
  cfg.grid.y_min = -1;
  cfg.grid.y_max = 2;
  cfg.grid.resolution_m = 0.01;
  const auto result = localize_2d(set, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(std::hypot(result->x - tag.x, result->y - tag.y), 0.0, 0.05);
  EXPECT_EQ(result->measurements_used, 40u);
}

TEST(Localizer, MultipathGhostRejected) {
  // Slightly tilted flight path: a perfectly straight 1D aperture has an
  // exact mirror ambiguity about its ground line, which a real (imperfect)
  // flight breaks.
  const auto traj = drone::linear_trajectory({4, 2.0, 1}, {6, 2.4, 1}, 40);
  const Vec3 tag{5.0, 0.5, 0};
  // Image tag beyond the trajectory (reflection off a far wall), stronger
  // in the heatmap than the direct return (the reciprocal channel squares
  // the path sum, so tag-ghost cross terms dominate): the global maximum
  // of P(x, y) is a ghost/cross lobe, as in paper Fig. 6(b).
  const Vec3 ghost{6.5, 4.5, 0};
  const auto set = synthesize(traj, tag, {0, 0, 1}, /*ghost_gain=*/0.8, ghost);

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 3;
  cfg.grid.x_max = 8;
  cfg.grid.y_min = -1;
  cfg.grid.y_max = 7;
  cfg.grid.resolution_m = 0.02;
  cfg.peak_threshold_fraction = 0.35;

  cfg.selection = PeakSelection::kHighest;
  const auto naive = localize_2d(set, cfg);
  cfg.selection = PeakSelection::kNearestToTrajectory;
  const auto rfly = localize_2d(set, cfg);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(rfly.ok());

  const double naive_err = std::hypot(naive->x - tag.x, naive->y - tag.y);
  const double rfly_err = std::hypot(rfly->x - tag.x, rfly->y - tag.y);
  // Highest-peak lands on a multipath lobe, several meters off; the
  // trajectory-nearest rule stays in the true tag's neighbourhood. The
  // residual error reflects the cross-term bias the real system also sees.
  EXPECT_GT(naive_err, 1.5);
  EXPECT_LT(rfly_err, naive_err / 2.0);
  EXPECT_LT(rfly_err, 1.5);
}

TEST(Localizer, MultiresMatchesFullScan) {
  const auto traj = drone::linear_trajectory({4, 2, 1}, {6, 2, 1}, 30);
  const Vec3 tag{5.1, 0.4, 0};
  const auto set = synthesize(traj, tag, {0, 0, 1});

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 4;
  cfg.grid.x_max = 6;
  cfg.grid.y_min = -0.5;
  cfg.grid.y_max = 1.5;
  cfg.grid.resolution_m = 0.01;

  cfg.multires = false;
  const auto full = localize_2d(set, cfg);
  cfg.multires = true;
  const auto fast = localize_2d(set, cfg);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_NEAR(full->x, fast->x, 0.03);
  EXPECT_NEAR(full->y, fast->y, 0.03);
}

TEST(Localizer, NoMeasurementsReturnsNullopt) {
  const auto result = localize_2d({}, LocalizerConfig{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNoReference);
}

TEST(Localizer, NoisyChannelsStillLocalize) {
  Rng rng(99);
  const auto traj = drone::linear_trajectory({4, 2, 1}, {6, 2, 1}, 40);
  const Vec3 tag{5.0, 0.5, 0};
  const auto set =
      synthesize(traj, tag, {0, 0, 1}, 0.0, {}, /*noise=*/0.1, &rng);

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 4;
  cfg.grid.x_max = 6;
  cfg.grid.y_min = -0.5;
  cfg.grid.y_max = 1.5;
  const auto result = localize_2d(set, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(std::hypot(result->x - tag.x, result->y - tag.y), 0.15);
}

TEST(Rssi, DistanceInversionExact) {
  // |h_iso| from a free-space one-way channel squared: d recovered exactly.
  const double f = kF2;
  const double d_true = 3.7;
  const cdouble h2 = channel::propagation_coefficient(d_true, f);
  const double ref =
      std::norm(channel::propagation_coefficient(1.0, f));
  EXPECT_NEAR(rssi_distance(h2 * h2, ref), d_true, 1e-9);
}

TEST(Rssi, LocalizesCoarsely) {
  const auto traj = drone::linear_trajectory({3, 2, 0}, {7, 2, 0}, 30);
  const Vec3 tag{5.0, 0.0, 0};
  MeasurementSet set;
  for (const auto& p : traj) {
    const cdouble h2 = one_way(p, tag, kF2);
    RelayMeasurement m;
    m.relay_position = p;
    m.embedded_channel = {1.0, 0.0};
    m.target_channel = h2 * h2;
    set.push_back(m);
  }
  RssiConfig cfg;
  cfg.reference_magnitude_at_1m = std::norm(channel::propagation_coefficient(1.0, kF2));
  cfg.grid.x_min = 3;
  cfg.grid.x_max = 7;
  cfg.grid.y_min = -2;
  cfg.grid.y_max = 2;
  cfg.grid.resolution_m = 0.05;
  const auto result = rssi_localize(disentangle(set), cfg);
  // Mirror ambiguity across the (z=0) trajectory line is inherent to
  // range-only data; accept either side.
  EXPECT_NEAR(result.x, tag.x, 0.3);
  EXPECT_NEAR(std::abs(result.y - 2.0), 2.0, 0.3);
}

TEST(Localize3d, RecoversHeightWith2dTrajectory) {
  // A two-row trajectory (different altitudes) resolves z (Section 5.2).
  std::vector<Vec3> traj;
  for (double z : {0.8, 1.6}) {
    const auto row = drone::linear_trajectory({4, 2, z}, {6, 2, z}, 15);
    traj.insert(traj.end(), row.begin(), row.end());
  }
  const Vec3 tag{5.0, 0.5, 0.4};
  const auto set = synthesize(traj, tag, {0, 0, 1});

  Volume vol;
  vol.x_min = 4.5;
  vol.x_max = 5.5;
  vol.y_min = 0.0;
  vol.y_max = 1.0;
  vol.z_min = 0.0;
  vol.z_max = 1.0;
  vol.resolution_m = 0.05;
  Localize3dConfig cfg3d;
  cfg3d.freq_hz = kF2;
  const auto result = localize_3d(set, vol, cfg3d);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->position.x, tag.x, 0.1);
  EXPECT_NEAR(result->position.y, tag.y, 0.1);
  EXPECT_NEAR(result->position.z, tag.z, 0.15);
}

TEST(Localizer, InvalidVolumeIsDegenerateGridBeforeAnyWork) {
  // An empty measurement set: a valid volume fails later with kNoReference,
  // so kDegenerateGrid proves the volume is rejected before disentanglement
  // and before any cell is counted or allocated.
  const Localize3dConfig cfg;
  const Volume valid;
  const auto no_reference = localize_3d({}, valid, cfg);
  ASSERT_FALSE(no_reference.ok());
  EXPECT_EQ(no_reference.status().code(), StatusCode::kNoReference);

  const double nan = std::nan("");
  std::vector<std::pair<const char*, Volume>> cases;
  Volume v = valid;
  v.z_min = 1.0;
  v.z_max = 0.0;
  cases.emplace_back("inverted z", v);
  v = valid;
  v.resolution_m = 0.0;
  cases.emplace_back("zero resolution", v);
  v = valid;
  v.resolution_m = nan;
  cases.emplace_back("NaN resolution", v);
  v = valid;
  v.resolution_m = std::numeric_limits<double>::infinity();
  cases.emplace_back("infinite resolution", v);
  v = valid;
  v.x_max = nan;
  cases.emplace_back("NaN bound", v);
  v = valid;
  v.z_max = nan;
  cases.emplace_back("NaN z bound", v);
  for (const auto& [name, volume] : cases) {
    const auto result = localize_3d({}, volume, cfg);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kDegenerateGrid)
        << name << ": " << result.status().to_string();
  }
}

TEST(Localizer, ValidateGridRejectsNonFiniteBounds) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(validate_grid({0.0, 1.0, 0.0, 1.0, 0.1}).is_ok());
  for (const GridSpec& grid :
       {GridSpec{nan, 1.0, 0.0, 1.0, 0.1}, GridSpec{0.0, nan, 0.0, 1.0, 0.1},
        GridSpec{0.0, 1.0, nan, 1.0, 0.1}, GridSpec{0.0, 1.0, 0.0, inf, 0.1},
        GridSpec{-inf, 1.0, 0.0, 1.0, 0.1}, GridSpec{0.0, 1.0, 0.0, 1.0, inf}}) {
    EXPECT_EQ(validate_grid(grid).code(), StatusCode::kDegenerateGrid)
        << grid.x_min << " " << grid.x_max << " " << grid.y_min << " "
        << grid.y_max << " " << grid.resolution_m;
  }
}

/// Property sweep: localization error stays small across tag placements.
class SarPlacementProperty : public ::testing::TestWithParam<int> {};

TEST_P(SarPlacementProperty, SubCentimeterOnCleanScenes) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const Vec3 tag{4.0 + rng.uniform(0, 2), rng.uniform(-0.5, 1.0), 0};
  const auto traj = drone::linear_trajectory({4, 2.5, 1}, {6, 2.5, 1}, 40);
  const auto set = synthesize(traj, tag, {0, 0, 1});

  LocalizerConfig cfg;
  cfg.freq_hz = kF2;
  cfg.grid.x_min = 3;
  cfg.grid.x_max = 7;
  cfg.grid.y_min = -1;
  cfg.grid.y_max = 2;
  const auto result = localize_2d(set, cfg);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(std::hypot(result->x - tag.x, result->y - tag.y), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Placements, SarPlacementProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace rfly::localize
