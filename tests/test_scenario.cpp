#include <gtest/gtest.h>

#include <clocale>
#include <string>

#include "sim/pipeline.h"
#include "sim/scenario.h"

namespace rfly::sim {
namespace {

// Bit-exact report equality: the round-trip and batch guarantees are about
// reproducing *identical* missions, not approximately similar ones.
void expect_reports_identical(const core::ScanReport& a, const core::ScanReport& b) {
  EXPECT_EQ(a.discovered, b.discovered);
  EXPECT_EQ(a.localized, b.localized);
  EXPECT_DOUBLE_EQ(a.flight_length_m, b.flight_length_m);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].epc, b.items[i].epc) << "item " << i;
    EXPECT_EQ(a.items[i].description, b.items[i].description) << "item " << i;
    EXPECT_EQ(a.items[i].discovered, b.items[i].discovered) << "item " << i;
    EXPECT_EQ(a.items[i].localized, b.items[i].localized) << "item " << i;
    EXPECT_EQ(a.items[i].measurements, b.items[i].measurements) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.x, b.items[i].estimate.x) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.y, b.items[i].estimate.y) << "item " << i;
    EXPECT_EQ(a.items[i].estimate.z, b.items[i].estimate.z) << "item " << i;
  }
}

TEST(Scenario, EveryPresetValidates) {
  for (const auto& name : preset_names()) {
    const auto scenario = preset(name);
    ASSERT_TRUE(scenario.ok()) << name;
    const Status status = validate(*scenario);
    EXPECT_TRUE(status.is_ok()) << name << ": " << status.to_string();
  }
}

TEST(Scenario, UnknownPresetIsNotFound) {
  const auto scenario = preset("starship");
  ASSERT_FALSE(scenario.ok());
  EXPECT_EQ(scenario.status().code(), StatusCode::kNotFound);
}

// The golden round-trip: serialize -> parse must reproduce the scenario
// exactly, verified end-to-end by running both through the pipeline and
// demanding bit-identical reports.
TEST(Scenario, PresetsRoundTripThroughTextBitIdentically) {
  for (const auto& name : preset_names()) {
    const auto original = preset(name);
    ASSERT_TRUE(original.ok()) << name;

    const std::string text = serialize(*original);
    const auto parsed = parse_scenario(text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().to_string();
    // Re-serializing the parsed value must give back the same text: the
    // cheap proof that no field was lost or rounded.
    EXPECT_EQ(serialize(*parsed), text) << name;

    const auto run_a = run_scenario(*original);
    const auto run_b = run_scenario(*parsed);
    ASSERT_TRUE(run_a.ok()) << name << ": " << run_a.status().to_string();
    ASSERT_TRUE(run_b.ok()) << name << ": " << run_b.status().to_string();
    expect_reports_identical(run_a->report, run_b->report);
  }
}

// Scenario text is locale-independent: serialization goes through
// std::to_chars/from_chars, which never consult LC_NUMERIC. Under a comma-
// decimal locale like de_DE, the old strtod/printf path wrote "3,5" and
// parsed "3.5" as 3 — every double in the file silently truncated. Skipped
// when the container has no such locale installed (only C/POSIX).
TEST(Scenario, RoundTripSurvivesCommaDecimalLocale) {
  const char* locale = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
  if (locale == nullptr) locale = std::setlocale(LC_NUMERIC, "de_DE.utf8");
  if (locale == nullptr) {
    GTEST_SKIP() << "no de_DE locale installed; cannot exercise comma decimals";
  }
  // Sanity: the locale really uses comma decimals, so printf would betray us.
  char probe[16];
  std::snprintf(probe, sizeof probe, "%.1f", 1.5);
  const bool comma_locale = std::string(probe) == "1,5";

  for (const auto& name : preset_names()) {
    const auto original = preset(name);
    ASSERT_TRUE(original.ok()) << name;
    const std::string text = serialize(*original);
    EXPECT_EQ(text.find(','), std::string::npos)
        << name << ": serialization leaked the locale decimal separator";
    const auto parsed = parse_scenario(text);
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().to_string();
    EXPECT_EQ(serialize(*parsed), text) << name;
  }
  std::setlocale(LC_NUMERIC, "C");
  EXPECT_TRUE(comma_locale) << "locale installed but uses '.' decimals; "
                               "test proved less than intended";
}

TEST(Scenario, ValidatorRejectsEmptyFlightPlan) {
  auto scenario = *preset("building");
  scenario.legs.clear();
  EXPECT_EQ(validate(scenario).code(), StatusCode::kEmptyFlightPlan);
}

TEST(Scenario, ValidatorRejectsEmptyPopulation) {
  auto scenario = *preset("building");
  scenario.tags.clear();
  EXPECT_EQ(validate(scenario).code(), StatusCode::kEmptyPopulation);
}

TEST(Scenario, ValidatorRejectsClippedSearchWindow) {
  auto scenario = *preset("building");
  scenario.grid_margin_to_path_m = scenario.search_halfwidth_m;
  const Status status = validate(scenario);
  EXPECT_EQ(status.code(), StatusCode::kDegenerateGrid);
  // Actionable: the message names both offending knobs with their values.
  EXPECT_NE(status.to_string().find("grid_margin_to_path_m"), std::string::npos);
  EXPECT_NE(status.to_string().find("search_halfwidth_m"), std::string::npos);
}

TEST(Scenario, ValidatorRejectsDuplicateEpcIndices) {
  auto scenario = *preset("building");
  scenario.tags[1].epc_index = scenario.tags[0].epc_index;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);
}

TEST(Scenario, ValidatorRejectsNonPositiveResolution) {
  auto scenario = *preset("building");
  scenario.grid_resolution_m = 0.0;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);
}

TEST(Scenario, ParseReportsLineNumberOnBadInput) {
  const auto result = parse_scenario("seed = 3\nnot a line\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().to_string().find("line 2"), std::string::npos);
}

TEST(Scenario, ParseRejectsUnknownKey) {
  const auto result = parse_scenario("warp_factor = 9\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().to_string().find("warp_factor"), std::string::npos);
}

TEST(Scenario, ParseRejectsBadValue) {
  const auto result = parse_scenario("seed = banana\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

// A repeated scalar key used to silently keep the last value — a typo'd
// sweep file ("localize.search" set twice) ran the wrong mission with
// no warning. Now it is a parse error naming both lines. Repeatable keys
// (leg/tag) stay repeatable — the preset round-trip above proves that.
TEST(Scenario, ParseRejectsDuplicateScalarKey) {
  const auto result = parse_scenario("seed = 3\nname = a\nseed = 4\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  const std::string text = result.status().to_string();
  EXPECT_NE(text.find("duplicate key 'seed'"), std::string::npos) << text;
  EXPECT_NE(text.find("line 3"), std::string::npos) << text;   // the duplicate
  EXPECT_NE(text.find("line 1"), std::string::npos) << text;   // first set
}

// faults.* keys are first-class scenario fields: they serialize, parse back
// bit-identically, and the validator rejects out-of-range rates.
TEST(Scenario, FaultConfigRoundTripsThroughText) {
  auto scenario = *preset("building");
  scenario.faults.dropout = 0.125;
  scenario.faults.phase_burst = 0.03;
  scenario.faults.phase_burst_std_rad = 0.7;
  scenario.faults.relay_cfo_std_rad = 0.001;
  scenario.faults.wind_jitter_std_m = 0.02;
  scenario.faults.embedded_loss = 0.05;
  scenario.faults.max_attempts = 5;

  const std::string text = serialize(scenario);
  const auto parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(serialize(*parsed), text);
  EXPECT_EQ(parsed->faults.dropout, 0.125);
  EXPECT_EQ(parsed->faults.phase_burst, 0.03);
  EXPECT_EQ(parsed->faults.phase_burst_std_rad, 0.7);
  EXPECT_EQ(parsed->faults.relay_cfo_std_rad, 0.001);
  EXPECT_EQ(parsed->faults.wind_jitter_std_m, 0.02);
  EXPECT_EQ(parsed->faults.embedded_loss, 0.05);
  EXPECT_EQ(parsed->faults.max_attempts, 5);
}

TEST(Scenario, ValidatorRejectsBadFaultConfig) {
  auto scenario = *preset("building");
  scenario.faults.dropout = 1.5;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);

  scenario = *preset("building");
  scenario.faults.wind_jitter_std_m = -0.1;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);

  scenario = *preset("building");
  scenario.faults.max_attempts = 0;
  EXPECT_EQ(validate(scenario).code(), StatusCode::kInvalidArgument);
}

TEST(Scenario, ApplyOverrideChangesOneKnob) {
  auto scenario = *preset("building");
  ASSERT_TRUE(apply_override(scenario, "localize.grid_resolution_m", "0.05").is_ok());
  EXPECT_DOUBLE_EQ(scenario.grid_resolution_m, 0.05);
  EXPECT_EQ(apply_override(scenario, "no.such.key", "1").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(apply_override(scenario, "seed", "x").code(), StatusCode::kParseError);
}

// The search-strategy knob is a first-class scenario field: non-default
// values survive the serialize -> parse round trip, and an unknown mode
// name is a parse error (not a silent fallback to the legacy sweep).
TEST(Scenario, SearchModeRoundTripsAndRejectsUnknownNames) {
  auto scenario = *preset("building");
  EXPECT_EQ(scenario.sar_search, localize::SarSearch::kExact);
  scenario.sar_search = localize::SarSearch::kCoarseToFine;
  const std::string text = serialize(scenario);
  EXPECT_NE(text.find("coarse2fine"), std::string::npos) << text;
  const auto parsed = parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->sar_search, localize::SarSearch::kCoarseToFine);
  EXPECT_EQ(serialize(*parsed), text);

  ASSERT_TRUE(apply_override(scenario, "localize.search", "incremental").is_ok());
  EXPECT_EQ(scenario.sar_search, localize::SarSearch::kIncremental);
  const Status bad = apply_override(scenario, "localize.search", "quantum");
  EXPECT_EQ(bad.code(), StatusCode::kParseError);
  // A rejected override never clobbers the knob.
  EXPECT_EQ(scenario.sar_search, localize::SarSearch::kIncremental);
  EXPECT_FALSE(
      parse_scenario("name = x\nlocalize.search = quantum\n").ok());
}

TEST(Scenario, TagDescriptionsWithSpacesRoundTrip) {
  auto scenario = *preset("warehouse");
  const auto parsed = parse_scenario(serialize(scenario));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->tags.size(), scenario.tags.size());
  for (std::size_t i = 0; i < scenario.tags.size(); ++i) {
    EXPECT_EQ(parsed->tags[i].description, scenario.tags[i].description);
    EXPECT_EQ(parsed->tags[i].position.x, scenario.tags[i].position.x);
    EXPECT_EQ(parsed->tags[i].position.y, scenario.tags[i].position.y);
  }
}

TEST(Scenario, LoadScenarioFileReportsIoError) {
  const auto result = load_scenario_file("/no/such/dir/mission.rfly");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(Scenario, ThroughWallEnvironmentHasTheWall) {
  const auto scenario = preset("through_wall");
  ASSERT_TRUE(scenario.ok());
  EXPECT_TRUE(scenario->environment.wall);
  const auto env = scenario->environment.build();
  EXPECT_FALSE(env.obstacles().empty());
}

}  // namespace
}  // namespace rfly::sim
