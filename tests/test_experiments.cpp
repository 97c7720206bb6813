#include <gtest/gtest.h>

#include <cmath>

#include "core/experiments.h"

namespace rfly::core {
namespace {

TEST(Experiments, CleanLocalizationTrialIsAccurate) {
  LocalizationTrialConfig cfg;
  cfg.shelf_rows = 0;  // line of sight
  const auto result = run_localization_trial(cfg, 42);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_LT(result->sar_error_m, 0.3);
  EXPECT_GT(result->measurements, 10u);
}

TEST(Experiments, SarBeatsRssi) {
  // In a realistic (multipath) environment the RSSI baseline collapses —
  // amplitude fades break the free-space inversion — while phase-based SAR
  // holds up. In a sterile free-space scene both are accurate and the
  // comparison is uninformative, so shelves are present here (Fig. 13's
  // 20x gap is measured in the paper's cluttered facility).
  LocalizationTrialConfig cfg;
  cfg.shelf_rows = 2;
  // Reader, flight path, and tag share an aisle between the steel shelf
  // rows (y = 10 and y = 20): strong reflections without total blockage.
  cfg.reader_position = {20.0, 15.0, 1.0};
  cfg.tag_position = {15.0, 12.0, 0.0};
  int sar_wins = 0;
  int trials = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto result = run_localization_trial(cfg, seed);
    if (!result) continue;
    ++trials;
    if (result->sar_error_m < result->rssi_error_m) ++sar_wins;
  }
  ASSERT_GE(trials, 4);
  EXPECT_GE(sar_wins, trials - 1);
}

TEST(Experiments, LargerApertureBetterAccuracy) {
  LocalizationTrialConfig narrow;
  narrow.shelf_rows = 0;
  narrow.aperture_m = 0.5;
  LocalizationTrialConfig wide = narrow;
  wide.aperture_m = 2.5;

  double narrow_total = 0.0;
  double wide_total = 0.0;
  int n = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto rn = run_localization_trial(narrow, seed);
    const auto rw = run_localization_trial(wide, seed);
    if (!rn || !rw) continue;
    narrow_total += rn->sar_error_m;
    wide_total += rw->sar_error_m;
    ++n;
  }
  ASSERT_GE(n, 3);
  EXPECT_LT(wide_total, narrow_total);
}

TEST(Experiments, ReadRateCrossoverAroundTenMeters) {
  ReadRateConfig cfg;
  const auto near = run_read_rate_point(cfg, 4.0, 1);
  const auto mid = run_read_rate_point(cfg, 15.0, 2);
  const auto far = run_read_rate_point(cfg, 50.0, 3);
  ASSERT_TRUE(near.ok() && mid.ok() && far.ok());

  // Direct reading works close, dies by 15 m (paper Fig. 11: zero at 10 m).
  EXPECT_GT(near->read_rate_no_relay, 0.8);
  EXPECT_LT(mid->read_rate_no_relay, 0.1);
  EXPECT_LT(far->read_rate_no_relay, 0.05);

  // With the relay the read rate stays high out to 50 m.
  EXPECT_GT(mid->read_rate_with_relay, 0.9);
  EXPECT_GT(far->read_rate_with_relay, 0.9);
}

TEST(Experiments, ThroughWallReducesButDoesNotKillRelayRate) {
  ReadRateConfig open;
  ReadRateConfig walled;
  walled.through_wall = true;
  const auto o = run_read_rate_point(open, 55.0, 4);
  const auto w = run_read_rate_point(walled, 55.0, 4);
  ASSERT_TRUE(o.ok() && w.ok());
  EXPECT_LE(w->read_rate_with_relay, o->read_rate_with_relay);
  EXPECT_GT(w->read_rate_with_relay, 0.3);
}

TEST(Experiments, DeterministicGivenSeed) {
  // Seed 0 localizes; seed 7 collects too few measurements under the
  // default shelf geometry. Both outcomes must repeat exactly.
  LocalizationTrialConfig cfg;
  for (std::uint64_t seed : {0u, 7u}) {
    const auto a = run_localization_trial(cfg, seed);
    const auto b = run_localization_trial(cfg, seed);
    ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed;
    EXPECT_EQ(a.status().to_string(), b.status().to_string()) << "seed " << seed;
    if (!a.ok()) continue;
    EXPECT_DOUBLE_EQ(a->sar_error_m, b->sar_error_m) << "seed " << seed;
    EXPECT_DOUBLE_EQ(a->rssi_error_m, b->rssi_error_m) << "seed " << seed;
  }
}

// --- Typed failures ---------------------------------------------------------

TEST(Experiments, ReadRatePointRejectsInvalidArguments) {
  ReadRateConfig no_trials;
  no_trials.trials = 0;
  const auto zero_trials = run_read_rate_point(no_trials, 10.0, 1);
  ASSERT_FALSE(zero_trials.ok());
  EXPECT_EQ(zero_trials.status().code(), StatusCode::kInvalidArgument);

  const ReadRateConfig cfg;
  for (double distance : {0.0, std::nan("")}) {
    const auto point = run_read_rate_point(cfg, distance, 1);
    ASSERT_FALSE(point.ok()) << distance;
    EXPECT_EQ(point.status().code(), StatusCode::kInvalidArgument) << distance;
  }
}

TEST(Experiments, TrialOutOfRelayReachIsInsufficientData) {
  LocalizationTrialConfig cfg;
  cfg.shelf_rows = 0;
  cfg.flight_offset_y_m = 500.0;  // the flight never powers the tag
  const auto result = run_localization_trial(cfg, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInsufficientData);
  const auto& context = result.status().context();
  ASSERT_EQ(context.size(), 2u) << result.status().to_string();
  EXPECT_EQ(context[0], "localization trial seed 3");
  EXPECT_EQ(context[1], "collect measurements");
}

TEST(Experiments, TrialWithClippedGridIsDegenerateGrid) {
  // The one-sided grid stops 0.3 m short of the flight path, so a 0.1 m
  // offset puts y_max = y + 0.1 - 0.3 below y_min = y - 0.1.
  LocalizationTrialConfig cfg;
  cfg.shelf_rows = 0;
  cfg.search_halfwidth_m = 0.1;
  cfg.flight_offset_y_m = 0.1;
  const auto result = run_localization_trial(cfg, 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDegenerateGrid)
      << result.status().to_string();
}

}  // namespace
}  // namespace rfly::core
