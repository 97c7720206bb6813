// Batched-execution parity suite: the batched mission runner's "behaviorally
// invisible" contract, pinned layer by layer. From the bottom up:
//
//   - Arena: reset() is pristine (same addresses as a fresh arena), the
//     high-water gauge survives reset/release, alignment holds.
//   - rows_multi: every compiled ISA variant's blocked multi-tag sweep is
//     bit-identical to per-tag `rows` calls, including ragged tails.
//   - sar_heatmap_multi: the public multi-tag sweep matches per-tag
//     sar_heatmap bitwise for both kernels at any thread count.
//   - localize_2d_with_plane: handing the localizer a precomputed scan
//     plane reproduces localize_2d_from bitwise for all three searches.
//   - run_batch: the full matrix — batched vs per-mission, batch and
//     per-mission SAR thread counts, searches, faults on/off, duplicate
//     jobs, cold vs warm vs disabled cache — every cell bit-identical,
//     every error context equal.
//
// Runs under the `batch` label: include it in the TSAN tree (coordinator /
// worker handoff, cache mutex) and the ASan+UBSan tree (arena pointer
// arithmetic, multi-tag tail handling).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"
#include "localize/sar.h"
#include "localize/sar_kernel.h"
#include "sim/batch.h"

namespace rfly::sim {
namespace {

constexpr double kFreq = 916e6;

// --- Arena ---------------------------------------------------------------

TEST(Arena, ResetIsPristine) {
  Arena arena(1 << 12);
  double* a = arena.alloc_array<double>(100);
  double* b = arena.alloc_array<double>(37);
  void* c = arena.allocate(64, 64);
  const std::size_t in_use = arena.bytes_in_use();
  EXPECT_GT(in_use, 0u);

  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Same request sequence after reset() bumps through the same blocks and
  // hands back the same addresses — the per-group reuse the batched sweep
  // relies on to keep its pages warm.
  EXPECT_EQ(arena.alloc_array<double>(100), a);
  EXPECT_EQ(arena.alloc_array<double>(37), b);
  EXPECT_EQ(arena.allocate(64, 64), c);
  EXPECT_EQ(arena.bytes_in_use(), in_use);
}

TEST(Arena, HighWaterSurvivesResetAndRelease) {
  Arena arena(1 << 12);
  arena.alloc_array<double>(500);
  const std::size_t peak = arena.high_water_bytes();
  EXPECT_GE(peak, 500 * sizeof(double));

  arena.reset();
  EXPECT_EQ(arena.high_water_bytes(), peak);
  arena.alloc_array<double>(10);  // below the old peak: no change
  EXPECT_EQ(arena.high_water_bytes(), peak);

  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.high_water_bytes(), peak);
}

TEST(Arena, AlignmentAndOversizedRequestsHold) {
  Arena arena(256);
  for (std::size_t align : {8u, 16u, 32u, 64u}) {
    void* p = arena.allocate(24, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << align;
  }
  // A request bigger than the block size gets its own dedicated block.
  const std::size_t before = arena.bytes_reserved();
  double* big = arena.alloc_array<double>(4096);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), before + 4096 * sizeof(double));
  big[0] = 1.0;
  big[4095] = 2.0;  // the whole extent is writable (ASan checks this)
  EXPECT_EQ(big[0] + big[4095], 3.0);
}

// --- Multi-tag kernel sweeps ---------------------------------------------

/// Randomized measurement geometry (same construction as the kernel and
/// thread-parity suites): jittered linear pass, random channel weights.
localize::DisentangledSet random_set(std::uint64_t seed, std::size_t n_points) {
  Rng rng(seed);
  localize::DisentangledSet set;
  const double x0 = rng.uniform(-1.0, 1.0);
  const double y0 = rng.uniform(1.5, 3.0);
  const auto traj = drone::linear_trajectory(
      {x0, y0, 1.0}, {x0 + rng.uniform(1.5, 3.0), y0 + rng.uniform(-0.2, 0.2), 1.0},
      n_points);
  for (const auto& p : traj) {
    channel::Vec3 jittered{p.x + rng.gaussian(0.0, 0.01),
                           p.y + rng.gaussian(0.0, 0.01),
                           p.z + rng.gaussian(0.0, 0.005)};
    set.positions.push_back(jittered);
    const double mag = std::pow(10.0, rng.uniform(-7.0, -5.0));
    set.channels.push_back(mag * cis(rng.phase()));
  }
  return set;
}

TEST(RowsMulti, EveryVariantMatchesPerTagRowsBitwise) {
  // The blocked multi-tag entry point must reproduce per-tag `rows` calls
  // bit-for-bit on every compiled ISA — same per-term expressions, same
  // order — including ragged tails (nx % lane width != 0, odd L).
  const auto base = random_set(900, 37);  // odd L: scalar tail in play
  const localize::GridSpec grid{0.0, 0.12, 0.0, 0.06, 0.01};  // nx=13, ny=7
  const std::size_t nx = grid.nx(), ny = grid.ny();
  ASSERT_EQ(nx, 13u);
  ASSERT_NE(nx % 8, 0u);
  std::vector<double> xs(nx), ys(ny);
  for (std::size_t ix = 0; ix < nx; ++ix) xs[ix] = grid.x_at(ix);
  for (std::size_t iy = 0; iy < ny; ++iy) ys[iy] = grid.y_at(iy);

  const auto geo = localize::SarGeometry::from(base, kFreq);
  for (std::size_t ntags = 1; ntags <= 4; ++ntags) {
    // Distinct channel weights per tag over the one shared trajectory.
    std::vector<std::vector<double>> hre(ntags), him(ntags);
    Rng rng(1000 + ntags);
    for (std::size_t t = 0; t < ntags; ++t) {
      for (std::size_t l = 0; l < geo.size(); ++l) {
        const cdouble h =
            std::pow(10.0, rng.uniform(-7.0, -5.0)) * cis(rng.phase());
        hre[t].push_back(h.real());
        him[t].push_back(h.imag());
      }
    }

    for (const auto& v : localize::sar_kernel_variants()) {
      if (!v.supported) continue;
      ASSERT_NE(v.rows_multi, nullptr) << v.isa;
      std::vector<double> scratch(geo.size() + 2 * ntags * 64, 0.0);

      localize::SarKernelArgs args;
      args.k = geo.k;
      args.px = geo.px.data();
      args.py = geo.py.data();
      args.pz = geo.pz.data();
      args.count = geo.size();
      args.xs = xs.data();
      args.nx = nx;
      args.ys = ys.data();
      args.z = 0.0;
      args.scratch = scratch.data();

      // Reference: one `rows` sweep per tag.
      std::vector<std::vector<double>> expected(ntags,
                                                std::vector<double>(nx * ny, 0.0));
      for (std::size_t t = 0; t < ntags; ++t) {
        args.hre = hre[t].data();
        args.him = him[t].data();
        args.values = expected[t].data();
        v.rows(args, 0, ny);
      }

      // Blocked: all tags in one pass.
      std::vector<std::vector<double>> actual(ntags,
                                              std::vector<double>(nx * ny, 0.0));
      std::vector<const double*> hre_ptrs, him_ptrs;
      std::vector<double*> out_ptrs;
      for (std::size_t t = 0; t < ntags; ++t) {
        hre_ptrs.push_back(hre[t].data());
        him_ptrs.push_back(him[t].data());
        out_ptrs.push_back(actual[t].data());
      }
      args.hre = nullptr;
      args.him = nullptr;
      args.values = nullptr;
      args.hre_tags = hre_ptrs.data();
      args.him_tags = him_ptrs.data();
      args.values_tags = out_ptrs.data();
      args.tags = ntags;
      v.rows_multi(args, 0, ny);

      for (std::size_t t = 0; t < ntags; ++t) {
        for (std::size_t i = 0; i < nx * ny; ++i) {
          ASSERT_EQ(actual[t][i], expected[t][i])
              << v.isa << " tags=" << ntags << " tag " << t << " cell " << i;
        }
      }
    }
  }
}

class MultiHeatmap
    : public ::testing::TestWithParam<std::tuple<localize::SarKernel, unsigned>> {};

TEST_P(MultiHeatmap, MatchesPerTagHeatmapBitwise) {
  const auto [kernel, threads] = GetParam();
  const auto base = random_set(42, 45);
  const localize::GridSpec grid{-1.0, 2.3, -0.5, 1.7, 0.04};
  const auto trajectory = localize::SharedTrajectory::from(base.positions);
  const auto shared_grid = localize::SharedGrid::from(grid);

  constexpr std::size_t kTags = 3;
  std::vector<localize::DisentangledSet> sets;
  for (std::size_t t = 0; t < kTags; ++t) {
    auto set = random_set(100 + t, 45);
    set.positions = base.positions;  // shared flight, per-tag channels
    sets.push_back(std::move(set));
  }

  const std::size_t cells = grid.nx() * grid.ny();
  std::vector<std::vector<double>> planes(kTags, std::vector<double>(cells, 0.0));
  std::vector<std::vector<double>> hre(kTags), him(kTags);
  std::vector<localize::MultiTagSlot> slots(kTags);
  for (std::size_t t = 0; t < kTags; ++t) {
    for (const cdouble h : sets[t].channels) {
      hre[t].push_back(h.real());
      him[t].push_back(h.imag());
    }
    slots[t] = {hre[t].data(), him[t].data(), planes[t].data()};
  }
  localize::sar_heatmap_multi(trajectory, shared_grid, kFreq, 0.0, slots.data(),
                              kTags, threads, kernel);

  for (std::size_t t = 0; t < kTags; ++t) {
    const auto solo = localize::sar_heatmap(sets[t], grid, kFreq, 0.0, threads, kernel);
    ASSERT_EQ(solo.values.size(), cells);
    for (std::size_t i = 0; i < cells; ++i) {
      ASSERT_EQ(planes[t][i], solo.values[i]) << "tag " << t << " cell " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndThreads, MultiHeatmap,
    ::testing::Combine(::testing::Values(localize::SarKernel::kExact,
                                         localize::SarKernel::kFast),
                       ::testing::Values(1u, 2u, 8u)));

// --- localize_2d_with_plane ----------------------------------------------

class PlaneSubstitution
    : public ::testing::TestWithParam<std::tuple<localize::SarKernel, localize::SarSearch>> {};

TEST_P(PlaneSubstitution, ReproducesLocalize2dFromBitwise) {
  const auto [kernel, search] = GetParam();
  const auto set = random_set(77, 40);

  localize::LocalizerConfig config;
  config.freq_hz = kFreq;
  config.grid = {-1.0, 3.0, -0.5, 2.5, 0.02};
  config.threads = 1;
  config.kernel = kernel;
  config.search = search;

  const auto direct = localize::localize_2d_from(set, config);
  ASSERT_TRUE(direct.ok()) << direct.status().to_string();

  // The plane a batched runner would precompute: the scan grid this config
  // actually sweeps, evaluated by the same kernel.
  const localize::GridSpec scan = localize::localize_scan_grid(config);
  const localize::Heatmap plane = localize::sar_heatmap(
      set, scan, config.freq_hz, config.z_plane_m, config.threads, config.kernel);
  const auto planed = localize::localize_2d_with_plane(set, config, plane);
  ASSERT_TRUE(planed.ok()) << planed.status().to_string();

  EXPECT_EQ(planed.value().x, direct.value().x);
  EXPECT_EQ(planed.value().y, direct.value().y);
  EXPECT_EQ(planed.value().peak_value, direct.value().peak_value);
  EXPECT_EQ(planed.value().measurements_used, direct.value().measurements_used);
  ASSERT_EQ(planed.value().candidates.size(), direct.value().candidates.size());
  for (std::size_t i = 0; i < direct.value().candidates.size(); ++i) {
    EXPECT_EQ(planed.value().candidates[i].x, direct.value().candidates[i].x) << i;
    EXPECT_EQ(planed.value().candidates[i].y, direct.value().candidates[i].y) << i;
    EXPECT_EQ(planed.value().candidates[i].value, direct.value().candidates[i].value) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSearches, PlaneSubstitution,
    ::testing::Combine(::testing::Values(localize::SarKernel::kExact,
                                         localize::SarKernel::kFast),
                       ::testing::Values(localize::SarSearch::kExact,
                                         localize::SarSearch::kIncremental,
                                         localize::SarSearch::kCoarseToFine)));

// --- Full batch parity ---------------------------------------------------

void expect_reports_identical(const core::ScanReport& a, const core::ScanReport& b) {
  EXPECT_EQ(a.discovered, b.discovered);
  EXPECT_EQ(a.localized, b.localized);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].discovered, b.items[i].discovered) << "item " << i;
    EXPECT_EQ(a.items[i].localized, b.items[i].localized) << "item " << i;
    EXPECT_EQ(a.items[i].measurements, b.items[i].measurements) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.x, b.items[i].estimate.x) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.y, b.items[i].estimate.y) << "item " << i;
    EXPECT_EQ(a.items[i].status.code(), b.items[i].status.code()) << "item " << i;
    EXPECT_EQ(a.items[i].status.to_string(), b.items[i].status.to_string())
        << "item " << i;
  }
}

void expect_results_identical(const std::vector<BatchResult>& a,
                              const std::vector<BatchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << "job " << i;
    EXPECT_EQ(a[i].scenario_name, b[i].scenario_name) << "job " << i;
    EXPECT_EQ(a[i].status.to_string(), b[i].status.to_string()) << "job " << i;
    if (!a[i].status.is_ok()) continue;
    EXPECT_EQ(a[i].run.health.code(), b[i].run.health.code()) << "job " << i;
    EXPECT_EQ(a[i].run.health.to_string(), b[i].run.health.to_string()) << "job " << i;
    EXPECT_EQ(a[i].run.aperture_coverage, b[i].run.aperture_coverage) << "job " << i;
    EXPECT_EQ(a[i].run.faults.dropouts, b[i].run.faults.dropouts) << "job " << i;
    EXPECT_EQ(a[i].run.faults.retries, b[i].run.faults.retries) << "job " << i;
    expect_reports_identical(a[i].run.report, b[i].run.report);
  }
}

/// The matrix scenario: the building preset with a coarser grid so the
/// 24-cell sweep stays fast. Parity is resolution-independent.
void clear_geometry_caches() {
  localize::global_trajectory_cache().clear();
  localize::global_grid_cache().clear();
}

Scenario matrix_scenario() {
  auto scenario = *preset("building");
  scenario.grid_resolution_m = 0.05;
  return scenario;
}

/// Duplicate-heavy job list: two identical jobs (dedup candidates), a
/// distinct seed on the same scenario, and a second distinct scenario text.
std::vector<BatchJob> matrix_jobs(const Scenario& scenario) {
  Scenario other = scenario;
  other.name = "building-fine";
  other.grid_resolution_m = 0.04;
  return {{scenario, 11}, {scenario, 12}, {scenario, 11}, {other, 11}};
}

struct MatrixCase {
  unsigned threads;
  /// The scenario's `localize.threads`: 0 = each mission's SAR on the
  /// shared pool, 1 = serial. (This byte selected the SAR kernel while
  /// missions had a kernel knob; keeping its place keeps the case names.)
  std::uint8_t localize_threads;
  localize::SarSearch search;
  bool faults;
};

class BatchedVsPerMission : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(BatchedVsPerMission, BitIdenticalAcrossTheMatrix) {
  const MatrixCase c = GetParam();
  Scenario scenario = matrix_scenario();
  scenario.localize_threads = c.localize_threads;
  scenario.sar_search = c.search;
  if (c.faults) scenario.faults.dropout = 0.2;
  const auto jobs = matrix_jobs(scenario);

  clear_geometry_caches();
  const auto batched = run_batch(jobs, {c.threads, BatchMode::kBatched});
  const auto reference = run_batch(jobs, {c.threads, BatchMode::kPerMission});
  expect_results_identical(batched, reference);

  // Ground truth: each per-mission slot equals a lone run_scenario call.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto solo = run_scenario(jobs[i].scenario, jobs[i].seed);
    ASSERT_TRUE(solo.ok()) << solo.status().to_string();
    ASSERT_TRUE(batched[i].status.is_ok()) << batched[i].status.to_string();
    expect_reports_identical(batched[i].run.report, solo.value().report);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BatchedVsPerMission,
    ::testing::ValuesIn([] {
      std::vector<MatrixCase> cases;
      for (unsigned threads : {1u, 2u, 8u}) {
        for (std::uint8_t localize_threads : {0, 1}) {
          for (localize::SarSearch search :
               {localize::SarSearch::kExact, localize::SarSearch::kIncremental}) {
            for (bool faults : {false, true}) {
              cases.push_back({threads, localize_threads, search, faults});
            }
          }
        }
      }
      return cases;
    }()));

TEST(BatchParity, DedupFindsDuplicateJobsAndThreadCountIsInvisible) {
  const Scenario scenario = matrix_scenario();
  std::vector<BatchJob> jobs(6, {scenario, 21});  // six identical missions

  clear_geometry_caches();
  BatchRunInfo serial_info;
  const auto serial = run_batch(jobs, {1, BatchMode::kBatched}, &serial_info);
  clear_geometry_caches();
  BatchRunInfo threaded_info;
  const auto threaded = run_batch(jobs, {8, BatchMode::kBatched}, &threaded_info);

  expect_results_identical(serial, threaded);
  // One scenario text, validated once; every localize stage deferred; the
  // six copies collapse to one distinct task per tag.
  EXPECT_EQ(serial_info.scenario_groups, 1u);
  EXPECT_GT(serial_info.deferred_tasks, 0u);
  EXPECT_EQ(serial_info.deferred_tasks, 6u * serial_info.distinct_tasks);
  // The sharing discovered is content-determined, so the instrumentation is
  // thread-count-invariant too (all but wall_seconds).
  EXPECT_EQ(serial_info.scenario_groups, threaded_info.scenario_groups);
  EXPECT_EQ(serial_info.plane_groups, threaded_info.plane_groups);
  EXPECT_EQ(serial_info.deferred_tasks, threaded_info.deferred_tasks);
  EXPECT_EQ(serial_info.distinct_tasks, threaded_info.distinct_tasks);
  EXPECT_EQ(serial_info.cache_misses, threaded_info.cache_misses);
  EXPECT_EQ(serial_info.cache_hits, threaded_info.cache_hits);
  EXPECT_EQ(serial_info.arena_high_water_bytes, threaded_info.arena_high_water_bytes);

  // And the deduped results are the lone-mission ground truth.
  const auto solo = run_scenario(scenario, 21);
  ASSERT_TRUE(solo.ok());
  for (const auto& result : serial) {
    ASSERT_TRUE(result.status.is_ok());
    expect_reports_identical(result.run.report, solo.value().report);
  }
}

TEST(BatchParity, ColdWarmAndDisabledCachesAgreeBitwise) {
  const Scenario scenario = matrix_scenario();
  const std::vector<BatchJob> jobs(3, {scenario, 31});
  const unsigned threads = 2;

  clear_geometry_caches();
  BatchRunInfo cold_info;
  const auto cold = run_batch(jobs, {threads, BatchMode::kBatched}, &cold_info);
  EXPECT_GT(cold_info.cache_misses, 0u);

  BatchRunInfo warm_info;
  const auto warm = run_batch(jobs, {threads, BatchMode::kBatched}, &warm_info);
  EXPECT_EQ(warm_info.cache_misses, 0u);
  EXPECT_GT(warm_info.cache_hits, 0u);

  clear_geometry_caches();
  BatchRunInfo disabled_info;
  const auto disabled =
      run_batch(jobs, {threads, BatchMode::kBatched, 0}, &disabled_info);
  EXPECT_EQ(disabled_info.cache_hits, 0u);

  // Cache state is invisible in the output: cold, warm, and disabled runs
  // are bit-identical.
  expect_results_identical(cold, warm);
  expect_results_identical(cold, disabled);

  // Re-running the cold sequence reproduces the same stats delta — the
  // cache's behavior is a pure function of the lookup sequence.
  clear_geometry_caches();
  BatchRunInfo cold2_info;
  const auto cold2 = run_batch(jobs, {threads, BatchMode::kBatched}, &cold2_info);
  expect_results_identical(cold, cold2);
  EXPECT_EQ(cold2_info.cache_misses, cold_info.cache_misses);
  EXPECT_EQ(cold2_info.cache_hits, cold_info.cache_hits);

  // Restore the default retention bound for whatever runs next.
  localize::global_trajectory_cache().set_capacity(kDefaultCacheCapacity);
  localize::global_grid_cache().set_capacity(kDefaultCacheCapacity);
}

TEST(BatchParity, FailedJobContextsMatchPerMissionExactly) {
  // A job that fails validation must carry the same status text in both
  // modes — the hoisted validate-once path has to reproduce the contexts
  // the per-job run_scenario nesting produced, character for character.
  const Scenario good = matrix_scenario();
  Scenario bad = good;
  bad.name = "clipped";
  bad.grid_margin_to_path_m = bad.search_halfwidth_m + 1.0;

  const std::vector<BatchJob> jobs{{good, 5}, {bad, 5}, {bad, 6}};
  const auto batched = run_batch(jobs, {2, BatchMode::kBatched});
  const auto reference = run_batch(jobs, {2, BatchMode::kPerMission});
  ASSERT_EQ(batched.size(), 3u);
  EXPECT_TRUE(batched[0].status.is_ok());
  EXPECT_EQ(batched[1].status.code(), StatusCode::kDegenerateGrid);
  EXPECT_EQ(batched[2].status.code(), StatusCode::kDegenerateGrid);
  // Different seeds produce different job contexts on the same root cause.
  EXPECT_NE(batched[1].status.to_string(), batched[2].status.to_string());
  expect_results_identical(batched, reference);
}

TEST(BatchParity, SeedSweepHonorsBothModes) {
  const Scenario scenario = matrix_scenario();
  BatchRunInfo info;
  const auto batched = run_seed_sweep(scenario, 40, 3, {2, BatchMode::kBatched}, &info);
  const auto reference = run_seed_sweep(scenario, 40, 3, {2, BatchMode::kPerMission});
  expect_results_identical(batched, reference);
  EXPECT_EQ(info.scenario_groups, 1u);  // one text, three seeds

  const auto summary = summarize(batched, info);
  EXPECT_EQ(summary.jobs, 3u);
  EXPECT_GT(summary.missions_per_second, 0.0);
  EXPECT_EQ(summary.cache_hits, info.cache_hits);
  EXPECT_EQ(summary.arena_high_water_bytes, info.arena_high_water_bytes);
}

TEST(BatchParity, ModeNamesRoundTrip) {
  EXPECT_STREQ(batch_mode_name(BatchMode::kBatched), "batched");
  EXPECT_STREQ(batch_mode_name(BatchMode::kPerMission), "per-mission");
  BatchMode mode = BatchMode::kBatched;
  EXPECT_TRUE(parse_batch_mode("per-mission", mode));
  EXPECT_EQ(mode, BatchMode::kPerMission);
  EXPECT_TRUE(parse_batch_mode("batched", mode));
  EXPECT_EQ(mode, BatchMode::kBatched);
  EXPECT_FALSE(parse_batch_mode("Batched", mode));
  EXPECT_FALSE(parse_batch_mode("", mode));
  EXPECT_EQ(mode, BatchMode::kBatched);  // failed parse leaves `out` alone
}

}  // namespace
}  // namespace rfly::sim
