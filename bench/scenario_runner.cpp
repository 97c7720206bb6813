// Scenario runner: the generic mission CLI. Loads a scenario (named preset
// or key=value file), applies --set overrides, and runs a seed sweep on the
// batch runner — outer job parallelism composing with the inner SAR
// parallelism. The per-seed report lines are bit-identical at any --threads
// setting; only the timing footer varies run to run.
//
//   scenario_runner --scenario building --trials 5 --threads 4
//   scenario_runner --scenario sweep.rfly --set localize.grid_resolution_m=0.05
//   scenario_runner                # lists presets, runs `building` once
#include <cstdio>

#include "bench_util.h"
#include "sim/batch.h"

using namespace rfly;

namespace {

void print_result(std::size_t trial, const sim::BatchResult& result) {
  // The sweep derives each trial's engine seed by hashing (base seed, trial
  // index), so the trial number is the human-facing label and the raw seed
  // prints alongside for reproduction with --set seed=....
  if (!result.status.is_ok()) {
    std::printf("trial %-3zu (seed %llu) FAILED  %s\n", trial,
                static_cast<unsigned long long>(result.seed),
                result.status.to_string().c_str());
    return;
  }
  const auto& report = result.run.report;
  std::printf("trial %-3zu (seed %llu) discovered %zu/%zu localized %zu", trial,
              static_cast<unsigned long long>(result.seed), report.discovered,
              report.items.size(), report.localized);
  if (result.run.health.code() == StatusCode::kDegraded) {
    std::printf("  DEGRADED (coverage %.1f%%)",
                result.run.aperture_coverage * 100.0);
  }
  std::printf("\n");
  for (const auto& item : report.items) {
    if (item.localized) {
      std::printf("    %-24s (%7.2f, %7.2f)\n",
                  item.description.empty() ? "<unknown>" : item.description.c_str(),
                  item.estimate.x, item.estimate.y);
    } else {
      std::printf("    %-24s %s\n",
                  item.description.empty() ? "<unknown>" : item.description.c_str(),
                  status_code_name(item.status.code()));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions opts;
  opts.trials = 1;
  if (!opts.parse(argc, argv)) return 2;

  // Resolve the scenario: a preset name first, then a file path.
  std::string source = opts.scenario;
  if (source.empty()) {
    std::printf("no --scenario given; presets:");
    for (const auto& name : sim::preset_names()) std::printf(" %s", name.c_str());
    std::printf("\nrunning preset 'building'\n\n");
    source = "building";
  }
  auto loaded = sim::preset(source);
  if (!loaded) {
    loaded = sim::load_scenario_file(source);
    if (!loaded) {
      std::fprintf(stderr, "cannot resolve scenario '%s': %s\n", source.c_str(),
                   loaded.status().to_string().c_str());
      return 1;
    }
  }
  sim::Scenario scenario = std::move(loaded.value());

  for (const auto& [key, value] : opts.overrides) {
    if (Status status = sim::apply_override(scenario, key, value);
        !status.is_ok()) {
      // A bad --set is a command-line error like any other flag typo:
      // status + usage + exit 2 (load failures above stay exit 1).
      std::fprintf(stderr, "%s\n", status.to_string().c_str());
      bench::CliOptions::usage(argv[0]);
      return 2;
    }
  }
  // An explicit --search wins over the scenario's localize.search field
  // (and over --set overrides); without the flag the scenario decides.
  if (opts.search_explicit) scenario.sar_search = opts.search;
  if (Status status = sim::validate(scenario); !status.is_ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    return 1;
  }

  const std::uint64_t first_seed = opts.seed != 1 ? opts.seed : scenario.seed;
  const std::size_t trials = opts.trials > 0 ? static_cast<std::size_t>(opts.trials) : 1;
  std::printf("scenario '%s': %zu tag(s), %zu leg(s); %zu trial(s) from base seed %llu, %u thread(s)\n\n",
              scenario.name.c_str(), scenario.tags.size(), scenario.legs.size(),
              trials, static_cast<unsigned long long>(first_seed),
              opts.threads);

  sim::BatchRunInfo info;
  const auto results = sim::run_seed_sweep(
      scenario, first_seed, trials,
      {opts.threads, opts.batch_mode, opts.cache_capacity}, &info);
  for (std::size_t i = 0; i < results.size(); ++i) print_result(i, results[i]);

  const auto summary = sim::summarize(results, info);
  std::printf("\n%zu job(s), %zu failed, %zu degraded; mean discovered %.2f, "
              "mean localized %.2f, mean coverage %.1f%%; %.3f s total over "
              "successful jobs\n",
              summary.jobs, summary.failed, summary.degraded,
              summary.mean_discovered, summary.mean_localized,
              summary.mean_coverage * 100.0, summary.total_seconds);
  std::printf("batch mode %s: %.1f missions/s; geometry cache %llu hit(s) / "
              "%llu miss(es); arena high-water %zu bytes\n",
              sim::batch_mode_name(opts.batch_mode),
              summary.missions_per_second,
              static_cast<unsigned long long>(summary.cache_hits),
              static_cast<unsigned long long>(summary.cache_misses),
              summary.arena_high_water_bytes);

  // Timing footer (wall clock — varies run to run, unlike the lines above).
  if (!results.empty() && results.front().status.is_ok()) {
    std::printf("stage seconds (job 0):");
    for (const auto& trace : results.front().run.trace) {
      std::printf(" %s=%.3f", sim::stage_name(trace.stage), trace.seconds);
    }
    std::printf("\n");
  }

  bench::Metrics metrics;
  metrics.add("jobs", static_cast<double>(summary.jobs));
  metrics.add("failed", static_cast<double>(summary.failed));
  metrics.add("degraded", static_cast<double>(summary.degraded));
  metrics.add("mean_discovered", summary.mean_discovered);
  metrics.add("mean_localized", summary.mean_localized);
  metrics.add("mean_coverage", summary.mean_coverage);
  metrics.add("total_seconds", summary.total_seconds);
  metrics.add("missions_per_second", summary.missions_per_second);
  metrics.add("cache_hits", static_cast<double>(summary.cache_hits));
  metrics.add("cache_misses", static_cast<double>(summary.cache_misses));
  metrics.add("arena_high_water_bytes",
              static_cast<double>(summary.arena_high_water_bytes));
  if (!bench::finish_observability(opts, metrics)) return 1;
  if (!metrics.write(opts.out)) return 1;
  return summary.failed == 0 ? 0 : 1;
}
