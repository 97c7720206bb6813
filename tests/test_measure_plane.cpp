// Measurement-synthesis plane suite (`measure` label), pinned layer by
// layer:
//
//   - Exact plane collect: the plane overload and the no-plane overload
//     (which builds a plane and forwards) are bit-identical to the seed's
//     scalar collect loop, kept below as a test-local reference — values,
//     statuses, and rng consumption — via direct calls over a flown
//     trajectory, across the ripple/noise/direct-path config variants.
//   - RNG draw-order golden: the collect loop's documented draw contract
//     (no shadowing; 2 ripple + 4 noise gaussians per surviving point, in
//     flight order; skipped points draw nothing; gated by the ripple stds
//     and the estimate sigma) reconstructed draw by draw from a fresh Rng.
//   - Forward kernels: every compiled ISA variant agrees on readability
//     masks and synthesized channels; fast synthesis tracks the exact
//     channels to tight relative tolerance with identical readable sets.
//   - Plane cache: config-sensitive keys and the
//     measure.plane.channel_evals counter contract (one eval per waypoint
//     per build, none on a hit). The cache contract itself is pinned for
//     every value kind by tests/test_content_cache.cpp.
//   - Scenario knob `measure.plane`: names, parse, serialize/parse
//     round-trip, override; the removed `off`/`auto` modes are typed parse
//     errors.
//   - The full-mission parity matrix: measure.plane=exact reports match,
//     across {threads 1/2/8} x {batched, per-mission} x {faults on/off},
//     the report digests the seed's scalar collect loop produced for the
//     same (seed, faults); the batch runner's forward plane cache stats
//     warm deterministically.
//
// Run it in the TSAN tree (shared immutable planes, cache mutex) and the
// ASan+UBSan tree (kernel pointer arithmetic, SoA tails, per-tag tables).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "channel/environment.h"
#include "common/digest.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/forward_kernel.h"
#include "core/forward_plane.h"
#include "core/system.h"
#include "drone/flight.h"
#include "drone/trajectory.h"
#include "localize/measurement.h"
#include "obs/metrics.h"
#include "sim/batch.h"

namespace rfly {
namespace {

using channel::Vec3;

// --- Direct-collect fixtures ---------------------------------------------

/// A small warehouse pass: reader in a corner, one aisle flight, tags a
/// meter off the path. Close enough that most points power the tags, far
/// enough that some drop (both skip branches stay exercised).
struct Fixture {
  core::RflySystem system;
  std::vector<drone::FlownPoint> flight;
  std::vector<Vec3> tags;
};

Fixture make_fixture(std::uint64_t seed, core::SystemConfig config = {}) {
  Rng rng(seed);
  const auto plan =
      drone::linear_trajectory({1.0, 3.0, 1.0}, {9.0, 3.0, 1.0}, 40);
  return Fixture{
      core::RflySystem(config, channel::warehouse_environment(12.0, 10.0, 1),
                       {1.0, 1.0, 1.0}),
      drone::fly(plan, {}, drone::optitrack_tracking(), rng),
      {{3.0, 2.0, 0.5}, {5.0, 2.2, 0.8}, {7.0, 1.8, 0.5}}};
}

/// The seed's scalar collect loop, verbatim: every per-waypoint quantity is
/// re-derived per point through the public RflySystem methods. It is the
/// reference the plane-backed collect must reproduce bit for bit — values,
/// statuses and rng draws. Like core/system.cpp, this TU compiles under the
/// project defaults (ISO C++20: no FP contraction), so both sides round
/// every operation the same way.
Expected<localize::MeasurementSet> seed_collect(
    const core::RflySystem& system, const std::vector<drone::FlownPoint>& flight,
    const Vec3& tag_pos, Rng& rng) {
  const auto& config = system.config();
  if (flight.empty()) {
    return Status{StatusCode::kEmptyFlightPlan,
                  "cannot collect measurements over an empty flight"};
  }
  localize::MeasurementSet set;
  set.reserve(flight.size());
  const double sigma = system.estimate_noise_sigma();
  for (const auto& point : flight) {
    if (system.tag_incident_power_dbm(point.actual, tag_pos) <
        config.tag.sensitivity_dbm) {
      continue;
    }
    if (system.reply_snr_db(point.actual, tag_pos) <
        config.decode_snr_threshold_db) {
      continue;
    }
    localize::RelayMeasurement m;
    m.relay_position = point.reported;
    m.target_channel = system.measured_target_channel(point.actual, tag_pos);
    m.embedded_channel = system.measured_embedded_channel(point.actual);
    if (config.amplitude_ripple_std_db > 0.0 || config.phase_ripple_std_rad > 0.0) {
      m.target_channel *=
          db_to_amplitude(rng.gaussian(0.0, config.amplitude_ripple_std_db)) *
          cis(rng.gaussian(0.0, config.phase_ripple_std_rad));
    }
    if (sigma > 0.0) {
      m.target_channel += cdouble{rng.gaussian(0.0, sigma / std::sqrt(2.0)),
                                  rng.gaussian(0.0, sigma / std::sqrt(2.0))};
      m.embedded_channel += cdouble{rng.gaussian(0.0, sigma / std::sqrt(2.0)),
                                    rng.gaussian(0.0, sigma / std::sqrt(2.0))};
    }
    set.push_back(m);
  }
  if (set.empty()) {
    return Status{StatusCode::kInsufficientData,
                  "tag unpowered or undecodable at all " +
                      std::to_string(flight.size()) + " flight points"};
  }
  return set;
}

/// The seed loop's skip conditions, verbatim — the reference for which
/// points survive.
bool point_survives(const core::RflySystem& system, const Vec3& actual,
                    const Vec3& tag) {
  const auto& cfg = system.config();
  return system.tag_incident_power_dbm(actual, tag) >= cfg.tag.sensitivity_dbm &&
         system.reply_snr_db(actual, tag) >= cfg.decode_snr_threshold_db;
}

std::size_t surviving_count(const Fixture& f, const Vec3& tag) {
  std::size_t n = 0;
  for (const auto& p : f.flight) {
    if (point_survives(f.system, p.actual, tag)) ++n;
  }
  return n;
}

// --- Exact plane: bit-identity -------------------------------------------

/// The config variants the direct parity checks sweep: defaults (ripple
/// and noise on, direct path on), each stochastic gate closed, the direct
/// path off, and everything quiet.
std::vector<core::SystemConfig> collect_config_variants() {
  std::vector<core::SystemConfig> variants(5);
  variants[1].amplitude_ripple_std_db = 0.0;
  variants[1].phase_ripple_std_rad = 0.0;
  variants[2].channel_noise = false;
  variants[3].include_direct_path = false;
  variants[4].amplitude_ripple_std_db = 0.0;
  variants[4].phase_ripple_std_rad = 0.0;
  variants[4].channel_noise = false;
  variants[4].include_direct_path = false;
  return variants;
}

/// Collect `tag` three ways from identical rng seeds — the seed loop, the
/// plane overload, the no-plane forward — and require identical results
/// (bitwise values or identical status text) and identical rng positions
/// after the call.
void expect_collect_matches_seed(const core::RflySystem& system,
                                 const std::vector<drone::FlownPoint>& flight,
                                 const core::ForwardPlane& plane, const Vec3& tag,
                                 std::uint64_t rng_seed) {
  Rng seed_rng(rng_seed), plane_rng(rng_seed), forward_rng(rng_seed);
  const auto reference = seed_collect(system, flight, tag, seed_rng);
  const auto planed = system.collect_measurements(flight, tag, plane_rng, plane);
  const auto forwarded = system.collect_measurements(flight, tag, forward_rng);
  for (const auto* got : {&planed, &forwarded}) {
    ASSERT_EQ(got->ok(), reference.ok()) << got->status().to_string();
    if (reference.ok()) {
      EXPECT_TRUE(localize::bitwise_equal(reference.value(), got->value()));
    } else {
      EXPECT_EQ(got->status().to_string(), reference.status().to_string());
    }
  }
  // All three rngs consumed the exact same draw count: their streams stay
  // in lockstep past the call.
  const double next = seed_rng.gaussian();
  EXPECT_EQ(plane_rng.gaussian(), next);
  EXPECT_EQ(forward_rng.gaussian(), next);
}

TEST(ExactPlane, CollectIsBitIdenticalToScalar) {
  std::uint64_t fixture_seed = 1;
  for (const core::SystemConfig& config : collect_config_variants()) {
    const auto f = make_fixture(fixture_seed++, config);
    const auto plane = core::ForwardPlane::build(f.system, f.flight);
    for (const Vec3& tag : f.tags) {
      Rng probe(7);
      const auto reference = seed_collect(f.system, f.flight, tag, probe);
      ASSERT_TRUE(reference.ok()) << reference.status().to_string();
      ASSERT_GT(reference.value().size(), 0u);
      expect_collect_matches_seed(f.system, f.flight, plane, tag, 7);
    }
  }
}

TEST(ExactPlane, StatusesMatchScalar) {
  for (const core::SystemConfig& config : collect_config_variants()) {
    const auto f = make_fixture(2, config);
    const auto plane = core::ForwardPlane::build(f.system, f.flight);

    // Empty flight: kEmptyFlightPlan from every path.
    const std::vector<drone::FlownPoint> empty_flight;
    const core::ForwardPlane empty_plane;
    Rng ra(1);
    const auto empty = seed_collect(f.system, empty_flight, f.tags[0], ra);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), StatusCode::kEmptyFlightPlan);
    expect_collect_matches_seed(f.system, empty_flight, empty_plane, f.tags[0], 1);

    // A tag far outside the relay's reach: every point dropped, identical
    // kInsufficientData text (it embeds the flight size).
    const Vec3 unreachable{11.5, 9.5, 0.1};
    Rng rb(1);
    const auto bad = seed_collect(f.system, f.flight, unreachable, rb);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInsufficientData);
    expect_collect_matches_seed(f.system, f.flight, plane, unreachable, 1);
  }
}

TEST(ExactPlane, HoistsMatchScalarMethodsBitwise) {
  const auto f = make_fixture(3);
  const auto plane = core::ForwardPlane::build(f.system, f.flight);
  ASSERT_EQ(plane.size(), f.flight.size());
  for (std::size_t i = 0; i < f.flight.size(); ++i) {
    const Vec3& a = f.flight[i].actual;
    EXPECT_EQ(plane.px[i], a.x);
    EXPECT_EQ(plane.py[i], a.y);
    EXPECT_EQ(plane.pz[i], a.z);
    const cdouble h1 = f.system.reader_relay_channel(a);
    EXPECT_EQ(plane.h1[i], h1) << i;
    EXPECT_EQ(plane.h1_abs_db[i], amplitude_to_db(std::abs(h1))) << i;
    EXPECT_EQ(plane.g_d_amp[i],
              db_to_amplitude(f.system.effective_downlink_gain_db(a)))
        << i;
    EXPECT_EQ(plane.embedded[i], f.system.measured_embedded_channel(a)) << i;
  }
}

// --- RNG draw-order golden -----------------------------------------------

TEST(DrawOrder, GoldenReplayReconstructsEveryMeasurement) {
  const auto f = make_fixture(4);
  const auto& cfg = f.system.config();
  ASSERT_GT(cfg.amplitude_ripple_std_db, 0.0);  // both gates open by default
  ASSERT_GT(f.system.estimate_noise_sigma(), 0.0);
  const Vec3 tag = f.tags[0];

  Rng collect_rng(99);
  const auto collected = f.system.collect_measurements(f.flight, tag, collect_rng);
  ASSERT_TRUE(collected.ok());
  const auto& set = collected.value();
  ASSERT_GT(set.size(), 0u);
  ASSERT_LT(set.size(), f.flight.size());  // some points skipped: gaps in play

  // Replay with a fresh Rng: for each surviving point, exactly two ripple
  // gaussians (amplitude dB, then phase rad) then four noise gaussians
  // (target re/im, embedded re/im); skipped points draw nothing. If the
  // implementation drew anything else — shadowing, draws on skipped points,
  // a different order — the streams would desynchronize and the bitwise
  // comparison below would fail.
  Rng replay(99);
  const double sigma = f.system.estimate_noise_sigma();
  std::size_t idx = 0;
  for (const auto& point : f.flight) {
    if (!point_survives(f.system, point.actual, tag)) continue;
    localize::RelayMeasurement expected;
    expected.relay_position = point.reported;
    expected.target_channel = f.system.measured_target_channel(point.actual, tag);
    expected.embedded_channel = f.system.measured_embedded_channel(point.actual);
    expected.target_channel *=
        db_to_amplitude(replay.gaussian(0.0, cfg.amplitude_ripple_std_db)) *
        cis(replay.gaussian(0.0, cfg.phase_ripple_std_rad));
    expected.target_channel += cdouble{replay.gaussian(0.0, sigma / std::sqrt(2.0)),
                                       replay.gaussian(0.0, sigma / std::sqrt(2.0))};
    expected.embedded_channel +=
        cdouble{replay.gaussian(0.0, sigma / std::sqrt(2.0)),
                replay.gaussian(0.0, sigma / std::sqrt(2.0))};
    ASSERT_LT(idx, set.size());
    EXPECT_TRUE(localize::bitwise_equal(set[idx], expected)) << "point " << idx;
    ++idx;
  }
  EXPECT_EQ(idx, set.size());
  // Both streams end in the same state.
  EXPECT_EQ(collect_rng.gaussian(), replay.gaussian());
}

/// Draw-count golden for the gated configs: after collect, the rng must sit
/// exactly `draws_per_point * survivors` gaussians into its stream.
void expect_draw_count(core::SystemConfig config, std::size_t draws_per_point) {
  const auto f = make_fixture(5, config);
  const Vec3 tag = f.tags[1];
  const std::size_t survivors = surviving_count(f, tag);
  ASSERT_GT(survivors, 0u);

  Rng collect_rng(123);
  const auto collected = f.system.collect_measurements(f.flight, tag, collect_rng);
  ASSERT_TRUE(collected.ok());
  ASSERT_EQ(collected.value().size(), survivors);

  Rng counted(123);
  for (std::size_t i = 0; i < draws_per_point * survivors; ++i) counted.gaussian();
  EXPECT_EQ(collect_rng.gaussian(), counted.gaussian());
}

TEST(DrawOrder, RippleGateClosedDrawsOnlyNoise) {
  core::SystemConfig config;
  config.amplitude_ripple_std_db = 0.0;
  config.phase_ripple_std_rad = 0.0;
  expect_draw_count(config, 4);
}

TEST(DrawOrder, NoiseGateClosedDrawsOnlyRipple) {
  core::SystemConfig config;
  config.channel_noise = false;  // estimate sigma = 0
  expect_draw_count(config, 2);
}

TEST(DrawOrder, AllGatesClosedDrawsNothing) {
  core::SystemConfig config;
  config.amplitude_ripple_std_db = 0.0;
  config.phase_ripple_std_rad = 0.0;
  config.channel_noise = false;
  expect_draw_count(config, 0);
}

// --- Forward kernels: fast synthesis and per-ISA agreement ---------------

/// Noise- and ripple-free config: channel comparisons below are then pure
/// synthesis, no stochastic term to swamp the tolerance.
core::SystemConfig quiet_config() {
  core::SystemConfig config;
  config.channel_noise = false;
  config.amplitude_ripple_std_db = 0.0;
  config.phase_ripple_std_rad = 0.0;
  return config;
}

void expect_channels_close(const cdouble& a, const cdouble& b,
                           double rel = 1e-9) {
  const double scale = std::max(std::abs(a), std::abs(b));
  EXPECT_NEAR(a.real(), b.real(), rel * scale);
  EXPECT_NEAR(a.imag(), b.imag(), rel * scale);
}

TEST(FastPlane, MatchesExactWithIdenticalReadableSets) {
  const auto f = make_fixture(6, quiet_config());
  const auto plane = core::ForwardPlane::build(f.system, f.flight);
  const auto synth = core::synthesize_forward_channels(f.system, plane, f.tags);
  ASSERT_EQ(synth.size(), f.tags.size());

  for (std::size_t t = 0; t < f.tags.size(); ++t) {
    Rng ra(7), rb(7);
    const auto exact =
        f.system.collect_measurements(f.flight, f.tags[t], ra, plane);
    const auto fast =
        f.system.collect_measurements(f.flight, rb, plane, synth[t]);
    ASSERT_TRUE(exact.ok()) << exact.status().to_string();
    ASSERT_TRUE(fast.ok()) << fast.status().to_string();
    // The linear-domain power checks are monotone transforms of the dBm
    // checks: same survivors.
    ASSERT_EQ(fast.value().size(), exact.value().size()) << "tag " << t;
    for (std::size_t i = 0; i < exact.value().size(); ++i) {
      const auto& e = exact.value()[i];
      const auto& g = fast.value()[i];
      EXPECT_EQ(g.relay_position.x, e.relay_position.x);
      EXPECT_EQ(g.relay_position.y, e.relay_position.y);
      EXPECT_EQ(g.relay_position.z, e.relay_position.z);
      expect_channels_close(g.target_channel, e.target_channel);
      // The embedded channel comes straight off the plane in both paths.
      EXPECT_EQ(g.embedded_channel, e.embedded_channel);
    }
  }
}

TEST(ForwardKernels, VariantListIsSaneAndDispatchPicksSupported) {
  const auto& variants = core::forward_kernel_variants();
  ASSERT_GE(variants.size(), 2u);  // batched scalar + baseline, minimum
  EXPECT_STREQ(variants[0].isa, "scalar");
  EXPECT_TRUE(variants[0].supported);
  EXPECT_TRUE(variants[1].supported);
  for (const auto& v : variants) {
    EXPECT_NE(v.distances, nullptr) << v.isa;
    EXPECT_NE(v.phasors, nullptr) << v.isa;
    EXPECT_NE(v.synthesize, nullptr) << v.isa;
  }
  EXPECT_TRUE(core::forward_kernel_active().supported);
}

TEST(ForwardKernels, EveryVariantAgreesOnMasksAndChannels) {
  const auto f = make_fixture(8, quiet_config());
  const auto plane = core::ForwardPlane::build(f.system, f.flight);
  const auto& variants = core::forward_kernel_variants();
  const auto reference =
      core::synthesize_forward_channels(f.system, plane, f.tags, &variants[0]);

  for (const auto& v : variants) {
    if (!v.supported) continue;
    const auto got = core::synthesize_forward_channels(f.system, plane, f.tags, &v);
    ASSERT_EQ(got.size(), reference.size()) << v.isa;
    for (std::size_t t = 0; t < got.size(); ++t) {
      ASSERT_EQ(got[t].readable, reference[t].readable) << v.isa << " tag " << t;
      for (std::size_t i = 0; i < plane.size(); ++i) {
        expect_channels_close(
            cdouble{got[t].target_re[i], got[t].target_im[i]},
            cdouble{reference[t].target_re[i], reference[t].target_im[i]});
      }
    }
  }
}

// --- Plane cache key and build accounting ---------------------------------

TEST(ForwardPlaneCache, KeyCoversSystemConfig) {
  // Same flight, one changed config field the plane depends on: must miss
  // and produce different hoists.
  const auto f = make_fixture(12);
  // Raise the downlink P1dB cap: the default link runs the amplifier deep
  // into saturation, so the relay TX power sits at the cap and provably
  // moves with it (a small-signal gain tweak would be invisible here).
  core::SystemConfig tweaked;
  tweaked.relay_downlink_p1db_dbm += 3.0;
  core::RflySystem other(tweaked, channel::warehouse_environment(12.0, 10.0, 1),
                         {1.0, 1.0, 1.0});
  ContentCache<core::ForwardPlane> cache("test.plane_cache", 4);
  const auto a = cache.get_or_build(core::plane_key(f.system, f.flight), [&] {
    return core::ForwardPlane::build(f.system, f.flight);
  });
  const auto b = cache.get_or_build(core::plane_key(other, f.flight), [&] {
    return core::ForwardPlane::build(other, f.flight);
  });
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(a->relay_tx_dbm[0], b->relay_tx_dbm[0]);
}

TEST(ForwardPlaneCache, ChannelEvalsCountOncePerBuild) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs compiled out";
  const auto f = make_fixture(30);
  auto& evals = obs::counter("measure.plane.channel_evals");
  auto& builds = obs::counter("measure.plane.builds");
  const std::uint64_t evals_before = evals.value();
  const std::uint64_t builds_before = builds.value();

  ContentCache<core::ForwardPlane> cache("test.plane_cache", 4);
  const auto lookup = [&] {
    cache.get_or_build(core::plane_key(f.system, f.flight),
                       [&] { return core::ForwardPlane::build(f.system, f.flight); });
  };
  lookup();  // build: one eval per waypoint
  lookup();  // hit: no evals
  lookup();  // hit: no evals
  EXPECT_EQ(evals.value() - evals_before, f.flight.size());
  EXPECT_EQ(builds.value() - builds_before, 1u);
}

// --- Scenario knob -------------------------------------------------------

TEST(MeasurePlaneKnob, NamesParseAndRejectRemovedModes) {
  using core::MeasurePlane;
  EXPECT_STREQ(core::measure_plane_name(MeasurePlane::kExact), "exact");
  EXPECT_STREQ(core::measure_plane_name(MeasurePlane::kFast), "fast");

  MeasurePlane mode = MeasurePlane::kExact;
  EXPECT_TRUE(core::parse_measure_plane("fast", mode));
  EXPECT_EQ(mode, MeasurePlane::kFast);
  EXPECT_TRUE(core::parse_measure_plane("exact", mode));
  EXPECT_EQ(mode, MeasurePlane::kExact);
  // `off` (the seed's scalar loop) and `auto` (an alias of exact) are gone.
  EXPECT_FALSE(core::parse_measure_plane("off", mode));
  EXPECT_FALSE(core::parse_measure_plane("auto", mode));
  EXPECT_FALSE(core::parse_measure_plane("Fast", mode));
  EXPECT_FALSE(core::parse_measure_plane("", mode));
  EXPECT_EQ(mode, MeasurePlane::kExact);  // failed parse leaves `out` alone
}

TEST(MeasurePlaneKnob, ScenarioRoundTripsAndOverrides) {
  auto scenario = *sim::preset("building");
  EXPECT_EQ(scenario.measure_plane, core::MeasurePlane::kExact);
  EXPECT_NE(sim::serialize(scenario).find("measure.plane = exact"),
            std::string::npos);
  ASSERT_TRUE(
      sim::apply_override(scenario, "measure.plane", "fast").is_ok());
  EXPECT_EQ(scenario.measure_plane, core::MeasurePlane::kFast);
  const std::string text = sim::serialize(scenario);
  EXPECT_NE(text.find("measure.plane = fast"), std::string::npos);
  const auto parsed = sim::parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().measure_plane, core::MeasurePlane::kFast);

  // Removed modes are typed parse errors naming the key, both as an
  // override (--set) and in scenario text.
  for (const char* removed : {"off", "auto", "bogus"}) {
    const Status status = sim::apply_override(scenario, "measure.plane", removed);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << removed;
    EXPECT_NE(status.to_string().find("measure.plane"), std::string::npos)
        << status.to_string();
    std::string edited = text;
    const std::string line = "measure.plane = fast";
    edited.replace(edited.find(line), line.size(),
                   std::string("measure.plane = ") + removed);
    const auto rejected = sim::parse_scenario(edited);
    ASSERT_FALSE(rejected.ok()) << removed;
    EXPECT_EQ(rejected.status().code(), StatusCode::kParseError) << removed;
    EXPECT_NE(rejected.status().to_string().find("measure.plane"),
              std::string::npos)
        << rejected.status().to_string();
  }
  EXPECT_EQ(scenario.measure_plane, core::MeasurePlane::kFast);
}

// --- Full-mission parity matrix ------------------------------------------

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

void expect_results_identical(const std::vector<sim::BatchResult>& a,
                              const std::vector<sim::BatchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << "job " << i;
    EXPECT_EQ(a[i].status.to_string(), b[i].status.to_string()) << "job " << i;
    if (!a[i].status.is_ok()) continue;
    EXPECT_EQ(a[i].run.health.to_string(), b[i].run.health.to_string())
        << "job " << i;
    EXPECT_EQ(a[i].run.aperture_coverage, b[i].run.aperture_coverage)
        << "job " << i;
    expect_reports_identical(a[i].run.report, b[i].run.report);
  }
}

sim::Scenario matrix_scenario() {
  auto scenario = *sim::preset("building");
  scenario.grid_resolution_m = 0.05;  // parity is resolution-independent
  return scenario;
}

void clear_measure_caches() {
  localize::global_trajectory_cache().clear();
  localize::global_grid_cache().clear();
  core::global_forward_plane_cache().clear();
}

struct MeasureMatrixCase {
  unsigned threads;
  sim::BatchMode mode;
  bool faults;
};

class ExactPlaneMatrix : public ::testing::TestWithParam<MeasureMatrixCase> {};

/// Digest of everything a mission result reports: status, health, aperture
/// coverage, fault tallies and every report field, live estimates included.
/// Stage traces are left out: their invocation counts say how the work was
/// staged (the seed loop had no plane-build step), not what it produced.
std::uint64_t report_digest(const sim::BatchResult& result) {
  std::uint64_t state = digest_word(0x7265'706f'7274'6467ull, result.seed);
  state = digest_string(state, result.status.to_string());
  const sim::MissionRun& run = result.run;
  state = digest_string(state, run.health.to_string());
  state = digest_double(state, run.aperture_coverage);
  state = digest_word(state, run.faults.dropouts);
  state = digest_word(state, run.faults.embedded_losses);
  state = digest_word(state, run.faults.phase_bursts);
  state = digest_word(state, run.faults.cfo_measurements);
  state = digest_word(state, run.faults.wind_points);
  state = digest_word(state, run.faults.retries);
  const core::ScanReport& report = run.report;
  state = digest_word(state, report.discovered);
  state = digest_word(state, report.localized);
  state = digest_double(state, report.flight_length_m);
  state = digest_word(state, report.items.size());
  for (const auto& item : report.items) {
    state = digest_bytes(state, item.epc.data(), item.epc.size());
    state = digest_string(state, item.description);
    state = digest_word(state, (item.discovered ? 2u : 0u) | (item.localized ? 1u : 0u));
    state = digest_word(state, item.measurements);
    state = digest_double(state, item.estimate.x);
    state = digest_double(state, item.estimate.y);
    state = digest_double(state, item.estimate.z);
    state = digest_string(state, item.status.to_string());
    state = digest_word(state, item.live.size());
    for (const auto& live : item.live) {
      state = digest_word(state, live.measurements);
      state = digest_double(state, live.x);
      state = digest_double(state, live.y);
      state = digest_double(state, live.peak_value);
      state = digest_double(state, live.confidence);
      state = digest_double(state, live.coverage);
    }
  }
  return state;
}

/// Report digests of the matrix scenario's jobs, produced by the seed's
/// scalar collect loop (the retired `measure.plane=off` path) for each
/// (seed, faults) pair — identical at every thread count and batch mode.
struct SeedCollectDigest {
  std::uint64_t seed;
  bool faults;
  std::uint64_t digest;
};
constexpr SeedCollectDigest kSeedCollectDigests[] = {
    {11, false, 0x5f4f08c6891eebdcull},
    {12, false, 0x0c85aafa1748337aull},
    {11, true, 0x4f3bbdec631fb08aull},
    {12, true, 0x3fe86dc66aa2380dull},
};

std::uint64_t seed_collect_digest(std::uint64_t seed, bool faults) {
  for (const auto& pin : kSeedCollectDigests) {
    if (pin.seed == seed && pin.faults == faults) return pin.digest;
  }
  ADD_FAILURE() << "no pinned digest for seed " << seed << " faults " << faults;
  return 0;
}

TEST_P(ExactPlaneMatrix, BitIdenticalToScalarCollect) {
  const MeasureMatrixCase c = GetParam();
  sim::Scenario exact = matrix_scenario();
  exact.measure_plane = core::MeasurePlane::kExact;
  if (c.faults) exact.faults.dropout = 0.2;
  const std::vector<sim::BatchJob> jobs{{exact, 11}, {exact, 12}, {exact, 11}};

  clear_measure_caches();
  const auto results = sim::run_batch(jobs, {c.threads, c.mode});
  ASSERT_EQ(results.size(), jobs.size());
  for (const auto& result : results) {
    ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
    EXPECT_EQ(report_digest(result), seed_collect_digest(result.seed, c.faults))
        << "seed " << result.seed << std::hex << " digest 0x" << report_digest(result);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExactPlaneMatrix,
    ::testing::ValuesIn([] {
      std::vector<MeasureMatrixCase> cases;
      for (unsigned threads : {1u, 2u, 8u}) {
        for (sim::BatchMode mode :
             {sim::BatchMode::kBatched, sim::BatchMode::kPerMission}) {
          for (bool faults : {false, true}) {
            cases.push_back({threads, mode, faults});
          }
        }
      }
      return cases;
    }()));

TEST(ExactPlaneMatrix, WarmCacheIsBitIdenticalAndDeterministic) {
  const auto jobs = std::vector<sim::BatchJob>(3, {matrix_scenario(), 31});

  clear_measure_caches();
  sim::BatchRunInfo cold_info;
  const auto cold = sim::run_batch(jobs, {2, sim::BatchMode::kBatched}, &cold_info);
  // Same scenario + seed = same flight: one build, then hits.
  EXPECT_EQ(cold_info.forward_plane_misses, 1u);
  EXPECT_EQ(cold_info.forward_plane_hits, 2u);

  sim::BatchRunInfo warm_info;
  const auto warm = sim::run_batch(jobs, {2, sim::BatchMode::kBatched}, &warm_info);
  EXPECT_EQ(warm_info.forward_plane_misses, 0u);
  EXPECT_EQ(warm_info.forward_plane_hits, 3u);
  expect_results_identical(cold, warm);

  // Per-mission mode reports plane stats too (the pipeline always uses the
  // plane cache when the knob is on).
  clear_measure_caches();
  sim::BatchRunInfo per_mission_info;
  const auto per_mission =
      sim::run_batch(jobs, {2, sim::BatchMode::kPerMission}, &per_mission_info);
  EXPECT_EQ(per_mission_info.forward_plane_misses, 1u);
  EXPECT_EQ(per_mission_info.forward_plane_hits, 2u);
  expect_results_identical(cold, per_mission);

  // Restore the default retention bounds for whatever runs next.
  core::global_forward_plane_cache().set_capacity(kDefaultCacheCapacity);
  localize::global_trajectory_cache().set_capacity(kDefaultCacheCapacity);
  localize::global_grid_cache().set_capacity(kDefaultCacheCapacity);
}

TEST(FastPlaneMission, TracksExactReportClosely) {
  // Fast mode is not bit-identical, but on a real mission it must agree on
  // the discovery/localization outcome and land estimates within a small
  // fraction of the grid resolution.
  sim::Scenario exact = matrix_scenario();
  exact.measure_plane = core::MeasurePlane::kExact;
  sim::Scenario fast = matrix_scenario();
  fast.measure_plane = core::MeasurePlane::kFast;

  clear_measure_caches();
  const auto a = sim::run_scenario(exact, 11);
  clear_measure_caches();
  const auto b = sim::run_scenario(fast, 11);
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  const auto& ra = a.value().report;
  const auto& rb = b.value().report;
  EXPECT_EQ(ra.discovered, rb.discovered);
  EXPECT_EQ(ra.localized, rb.localized);
  ASSERT_EQ(ra.items.size(), rb.items.size());
  for (std::size_t i = 0; i < ra.items.size(); ++i) {
    EXPECT_EQ(ra.items[i].localized, rb.items[i].localized) << "item " << i;
    EXPECT_EQ(ra.items[i].measurements, rb.items[i].measurements) << "item " << i;
    if (!ra.items[i].localized) continue;
    EXPECT_NEAR(ra.items[i].estimate.x, rb.items[i].estimate.x, 0.2) << "item " << i;
    EXPECT_NEAR(ra.items[i].estimate.y, rb.items[i].estimate.y, 0.2) << "item " << i;
  }
}

}  // namespace
}  // namespace rfly
