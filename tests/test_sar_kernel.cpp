// SAR kernel layer tests: accuracy of the batched polynomial sincos (the
// ISSUE bound is <= 1e-9 rad absolute; the implementation lands around
// 2e-16, i.e. ~1 ulp, and the tests record the observed worst case),
// fast-vs-exact heatmap agreement on randomized geometries, cross-variant
// agreement of every compiled ISA, the grid_axis_cells FP fix, and the
// kernel knob's name/scenario round-trips. Runs under the `kernel` label.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "drone/trajectory.h"
#include "localize/localizer.h"
#include "localize/peak.h"
#include "localize/sar.h"
#include "sim/scenario.h"

namespace rfly::localize {
namespace {

constexpr double kFreq = 916e6;
// The ISSUE's accuracy budget for the polynomial sincos. The 3-term
// Cody-Waite reduction holds to ~1 ulp for |x| <= 1e6; SAR arguments are
// k*d ~ 38.4 rad/m times tens of meters, orders of magnitude inside that.
constexpr double kSincosBudget = 1e-9;

double max_sincos_err(const SarKernelVariant& v, const std::vector<double>& x) {
  std::vector<double> s(x.size()), c(x.size());
  v.sincos(x.data(), s.data(), c.data(), x.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const long double xi = static_cast<long double>(x[i]);
    worst = std::max(worst, std::abs(s[i] - static_cast<double>(sinl(xi))));
    worst = std::max(worst, std::abs(c[i] - static_cast<double>(cosl(xi))));
  }
  return worst;
}

TEST(Sincos, ReducedRangeMatchesLongDoubleReference) {
  // [-pi/4, pi/4]: the polynomial's native interval, no range reduction in
  // play. This isolates the minimax error itself.
  std::vector<double> x;
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) x.push_back(rng.uniform(-0.7853981, 0.7853981));
  for (const auto& v : sar_kernel_variants()) {
    if (!v.supported) continue;
    const double err = max_sincos_err(v, x);
    RecordProperty(std::string(v.isa) + "_reduced_max_abs_err", err);
    EXPECT_LT(err, kSincosBudget) << v.isa;
  }
}

TEST(Sincos, FullDomainSweepStaysInsideBudget) {
  // |x| <= 1e6: the full domain the Cody-Waite reduction is specified for,
  // far beyond any SAR argument.
  std::vector<double> x;
  Rng rng(42);
  for (int i = 0; i < 50000; ++i) x.push_back(rng.uniform(-1e6, 1e6));
  for (const auto& v : sar_kernel_variants()) {
    if (!v.supported) continue;
    const double err = max_sincos_err(v, x);
    RecordProperty(std::string(v.isa) + "_full_max_abs_err", err);
    EXPECT_LT(err, kSincosBudget) << v.isa;
  }
}

TEST(Sincos, QuadrantEdgesSurviveRounding) {
  // Arguments at and ulps around multiples of pi/2, where the quadrant
  // index from the magic-number rounding could flip either way. Correctness
  // means either quadrant's evaluation stays within budget.
  std::vector<double> x;
  const double half_pi = 1.5707963267948966;
  for (int n = -1000; n <= 1000; ++n) {
    const double edge = static_cast<double>(n) * half_pi;
    x.push_back(edge);
    x.push_back(std::nextafter(edge, 1e9));
    x.push_back(std::nextafter(edge, -1e9));
  }
  for (const auto& v : sar_kernel_variants()) {
    if (!v.supported) continue;
    EXPECT_LT(max_sincos_err(v, x), kSincosBudget) << v.isa;
  }
}

TEST(Sincos, ScalarCoreAgreesWithBatch) {
  // The heatmap kernel inlines sincos_core; the dispatch table exposes
  // sincos_batch. Same polynomial, same results.
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-1e4, 1e4);
    double s = 0.0, c = 0.0;
    simd::sincos_core(x, s, c);
    double sb = 0.0, cb = 0.0;
    sar_kernel_variants().front().sincos(&x, &sb, &cb, 1);
    EXPECT_EQ(s, sb);
    EXPECT_EQ(c, cb);
  }
}

// --- Fast vs exact -------------------------------------------------------

/// Randomized measurement geometry (same construction as the thread-parity
/// suite): jittered linear pass, channels with random magnitude and phase.
DisentangledSet random_set(std::uint64_t seed, std::size_t n_points) {
  Rng rng(seed);
  DisentangledSet set;
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

class FastVsExact : public ::testing::TestWithParam<int> {};

TEST_P(FastVsExact, HeatmapValuesCloseAndArgmaxIdentical) {
  const auto set = random_set(static_cast<std::uint64_t>(500 + GetParam()), 40);
  const GridSpec grid{-1.5, 3.5, -0.5, 2.5, 0.04};
  const Heatmap exact = sar_heatmap(set, grid, kFreq, 0.0, 1, SarKernel::kExact);
  const Heatmap fast = sar_heatmap(set, grid, kFreq, 0.0, 1, SarKernel::kFast);
  ASSERT_EQ(exact.values.size(), fast.values.size());
  const double peak = exact.max_value();
  std::size_t argmax_exact = 0, argmax_fast = 0;
  for (std::size_t i = 0; i < exact.values.size(); ++i) {
    // Tolerance relative to the heatmap peak: each cell is a coherent sum
    // whose terms the fast kernel evaluates to ~1 ulp, so the absolute
    // error scales with the sum of magnitudes, not the (possibly tiny,
    // cancellation-dominated) cell value itself.
    EXPECT_NEAR(fast.values[i], exact.values[i], 1e-9 * peak) << "cell " << i;
    if (exact.values[i] > exact.values[argmax_exact]) argmax_exact = i;
    if (fast.values[i] > fast.values[argmax_fast]) argmax_fast = i;
  }
  EXPECT_EQ(argmax_exact, argmax_fast);
}

TEST_P(FastVsExact, RefinedPeakWithinTenthOfResolution) {
  const auto set = random_set(static_cast<std::uint64_t>(600 + GetParam()), 35);
  MeasurementSet measurements;
  for (std::size_t i = 0; i < set.channels.size(); ++i) {
    RelayMeasurement meas;
    meas.relay_position = set.positions[i];
    meas.embedded_channel = {1.0, 0.0};
    meas.target_channel = set.channels[i];
    measurements.push_back(meas);
  }
  LocalizerConfig cfg;
  cfg.freq_hz = kFreq;
  cfg.grid = {-1.0, 3.5, -0.5, 2.5, 0.01};
  cfg.threads = 1;
  cfg.kernel = SarKernel::kExact;
  const auto exact = localize_2d(measurements, cfg);
  ASSERT_TRUE(exact.ok());
  cfg.kernel = SarKernel::kFast;
  const auto fast = localize_2d(measurements, cfg);
  ASSERT_TRUE(fast.ok());
  const double dist = std::hypot(fast->x - exact->x, fast->y - exact->y);
  EXPECT_LT(dist, cfg.grid.resolution_m / 10.0);
}

TEST_P(FastVsExact, ProjectionAgreesThroughBothOverloads) {
  const auto set = random_set(static_cast<std::uint64_t>(700 + GetParam()), 30);
  const auto geo = SarGeometry::from(set, kFreq);
  Rng rng(static_cast<std::uint64_t>(800 + GetParam()));
  for (int i = 0; i < 50; ++i) {
    const channel::Vec3 p{rng.uniform(-1.0, 3.0), rng.uniform(-0.5, 2.5), 0.0};
    const double exact_set = sar_projection(set, p, kFreq, SarKernel::kExact);
    const double exact_geo = sar_projection(geo, p, SarKernel::kExact);
    const double fast = sar_projection(geo, p, SarKernel::kFast);
    // The two exact overloads run the same arithmetic — bit-identical.
    EXPECT_EQ(exact_set, exact_geo);
    // The fast path reorders the sum (lane partials) and uses the
    // polynomial sincos; agreement to ~1e-9 of the magnitude scale.
    const double scale = std::max(exact_set, 1e-12);
    EXPECT_NEAR(fast, exact_set, 1e-9 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastVsExact, ::testing::Range(1, 6));

TEST(KernelVariants, AllCompiledVariantsAgreeOnHeatmapRows) {
  const auto set = random_set(900, 64);
  const auto geo = SarGeometry::from(set, kFreq);
  const GridSpec grid{-1.0, 3.0, -0.5, 2.0, 0.05};
  const std::size_t nx = grid.nx(), ny = grid.ny();
  std::vector<double> xs(nx), ys(ny);
  for (std::size_t ix = 0; ix < nx; ++ix) xs[ix] = grid.x_at(ix);
  for (std::size_t iy = 0; iy < ny; ++iy) ys[iy] = grid.y_at(iy);

  const auto run_variant = [&](const SarKernelVariant& v) {
    std::vector<double> values(nx * ny, 0.0);
    std::vector<double> scratch(geo.size());
    SarKernelArgs args;
    args.k = geo.k;
    args.px = geo.px.data();
    args.py = geo.py.data();
    args.pz = geo.pz.data();
    args.hre = geo.hre.data();
    args.him = geo.him.data();
    args.count = geo.size();
    args.xs = xs.data();
    args.nx = nx;
    args.ys = ys.data();
    args.z = 0.0;
    args.values = values.data();
    args.scratch = scratch.data();
    v.rows(args, 0, ny);
    return values;
  };

  const auto& variants = sar_kernel_variants();
  ASSERT_GE(variants.size(), 2u);  // scalar + baseline always present
  EXPECT_STREQ(variants.front().isa, "scalar");
  const auto reference = run_variant(variants.front());
  double scale = 1e-12;
  for (double v : reference) scale = std::max(scale, v);
  for (const auto& v : variants) {
    if (!v.supported) continue;
    const auto values = run_variant(v);
    for (std::size_t i = 0; i < values.size(); ++i) {
      // Variants may contract multiply-adds differently (FMA); that is the
      // only allowed divergence between ISAs of the same kernel.
      ASSERT_NEAR(values[i], reference[i], 1e-11 * scale)
          << v.isa << " cell " << i;
    }
  }
}

TEST(KernelVariants, ActiveVariantIsSupportedAndListed) {
  const auto& active = sar_kernel_active();
  EXPECT_TRUE(active.supported);
  bool listed = false;
  for (const auto& v : sar_kernel_variants()) {
    if (&v == &active) listed = true;
  }
  EXPECT_TRUE(listed);
  EXPECT_NE(active.rows, nullptr);
  EXPECT_NE(active.projection, nullptr);
  EXPECT_NE(active.sincos, nullptr);
}

// --- grid_axis_cells ------------------------------------------------------

TEST(GridAxisCells, ExactMultiplesKeepTheirLastCell) {
  // 0.3/0.1 is 2.9999999999999996 in doubles: the naive floor drops the
  // last sample. The few-ulp slack recovers it without disturbing anything
  // genuinely below the next integer.
  EXPECT_EQ(grid_axis_cells(0.0, 0.3, 0.1), 4u);
  EXPECT_EQ(grid_axis_cells(0.0, 6.0, 0.02), 301u);
  EXPECT_EQ(grid_axis_cells(0.0, 1.0, 0.1), 11u);
  EXPECT_EQ(grid_axis_cells(-0.5, 3.5, 0.04), 101u);
  // Offsets that make the extent itself inexact.
  EXPECT_EQ(grid_axis_cells(0.1, 0.4, 0.1), 4u);
  EXPECT_EQ(grid_axis_cells(2.7, 3.0, 0.1), 4u);
}

TEST(GridAxisCells, NonMultiplesStillTruncate) {
  EXPECT_EQ(grid_axis_cells(0.0, 0.35, 0.1), 4u);   // 3.5 -> 3 (+1)
  EXPECT_EQ(grid_axis_cells(0.0, 0.299, 0.1), 3u);  // 2.99 -> 2 (+1)
  EXPECT_EQ(grid_axis_cells(0.0, 1.0, 0.3), 4u);    // 3.33 -> 3 (+1)
  EXPECT_EQ(grid_axis_cells(2.0, 2.0, 0.05), 1u);   // empty extent
}

TEST(GridAxisCells, GridSpecAxesDelegate) {
  const GridSpec grid{0.0, 0.3, 0.0, 6.0, 0.1};
  EXPECT_EQ(grid.nx(), 4u);
  EXPECT_EQ(grid.ny(), 61u);
  // The recovered last cell sits exactly on the upper bound.
  EXPECT_DOUBLE_EQ(grid.x_at(grid.nx() - 1), 0.30000000000000004);
}

// --- Kernel knob plumbing -------------------------------------------------

TEST(KernelKnob, NamesRoundTrip) {
  for (SarKernel k : {SarKernel::kExact, SarKernel::kFast}) {
    SarKernel parsed{};
    ASSERT_TRUE(parse_sar_kernel(sar_kernel_name(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  SarKernel parsed{};
  EXPECT_FALSE(parse_sar_kernel("", parsed));
  EXPECT_FALSE(parse_sar_kernel("EXACT", parsed));
  EXPECT_FALSE(parse_sar_kernel("fastest", parsed));
}

TEST(KernelKnob, AutoIsRejected) {
  SarKernel parsed = SarKernel::kFast;
  EXPECT_FALSE(parse_sar_kernel("auto", parsed));
  EXPECT_EQ(parsed, SarKernel::kFast);  // a failed parse leaves `out` alone

  // Scenario text and --set overrides both reject it with a typed error
  // naming the key (the key itself is gone; see ScenarioKeyIsRemoved).
  auto scenario = sim::preset("building");
  ASSERT_TRUE(scenario.ok());
  const Status override_status =
      sim::apply_override(*scenario, "localize.sar_kernel", "auto");
  EXPECT_EQ(override_status.code(), StatusCode::kParseError);
  EXPECT_NE(override_status.to_string().find("localize.sar_kernel"),
            std::string::npos)
      << override_status.to_string();

  const std::string text =
      sim::serialize(*scenario) + "localize.sar_kernel = auto\n";
  const auto parsed_text = sim::parse_scenario(text);
  ASSERT_FALSE(parsed_text.ok());
  EXPECT_EQ(parsed_text.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed_text.status().to_string().find("localize.sar_kernel"),
            std::string::npos)
      << parsed_text.status().to_string();
}

TEST(KernelKnob, ScenarioKeyIsRemoved) {
  // Missions always run the SIMD kernels: the scenario format carries no
  // kernel or plane key, and every localizer default is the fast kernel.
  auto scenario = sim::preset("warehouse");
  ASSERT_TRUE(scenario.ok());
  const std::string text = sim::serialize(*scenario);
  EXPECT_EQ(text.find("sar_kernel"), std::string::npos) << text;
  EXPECT_EQ(text.find("measure.plane"), std::string::npos) << text;
  const auto reparsed = sim::parse_scenario(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
  EXPECT_EQ(sim::serialize(*reparsed), text);
  EXPECT_EQ(LocalizerConfig{}.kernel, SarKernel::kFast);
  EXPECT_EQ(Localize3dConfig{}.kernel, SarKernel::kFast);
}

TEST(KernelKnob, OverrideOfRemovedKeyIsParseError) {
  auto scenario = sim::preset("building");
  ASSERT_TRUE(scenario.ok());
  const std::string before = sim::serialize(*scenario);
  for (const char* key : {"localize.sar_kernel", "measure.plane"}) {
    for (const char* value : {"exact", "fast", "bogus"}) {
      const Status status = sim::apply_override(*scenario, key, value);
      EXPECT_EQ(status.code(), StatusCode::kParseError) << key << "=" << value;
      EXPECT_NE(status.to_string().find(key), std::string::npos)
          << status.to_string();
      EXPECT_NE(status.to_string().find("was removed"), std::string::npos)
          << status.to_string();
    }
  }
  EXPECT_EQ(sim::serialize(*scenario), before);  // nothing was applied
}

}  // namespace
}  // namespace rfly::localize
