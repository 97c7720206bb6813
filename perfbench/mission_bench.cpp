// Mission benchmark binary: runs one workload of scan missions through the
// public entry points (run_seed_sweep, run_batch, run_fleet_mission,
// MissionService + Client) and prints one JSON record as its last stdout
// line. See README.md in this directory for the workloads, the metrics and
// how to read a record.
//
//   mission_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--record <path>] [--trace-out <path>]
//
// A run is: set-up, then rounds of jobs until --seconds have passed. Set-up
// is timed several times, each on its own warm-up seed, before the window
// and between its rounds; the median is setup_s, and the first, cold one is
// reported apart. The first rounds form the fixed "proof
// set": accuracy, the output digest and the exact work counters come from
// it alone, so they repeat bit-for-bit for a given seed however fast the
// machine is. With --trace 1 the rounds after the proof set alternate
// between untraced and traced (the benchmark's own obs spans open around
// each call it makes into a layer), and timed probes call each layer's
// public functions on inputs derived from the workload.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/forward_plane.h"
#include "core/inventory.h"
#include "core/system.h"
#include "drone/flight.h"
#include "gen2/tag.h"
#include "localize/localizer.h"
#include "localize/peak.h"
#include "localize/sar.h"
#include "localize/sar_kernel.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reader/q_algorithm.h"
#include "record.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "sim/batch.h"
#include "sim/fleet.h"
#include "sim/fleet_plan.h"
#include "sim/pipeline.h"
#include "sim/scenario.h"

namespace rfly::perfbench {
namespace {

using channel::Vec3;
constexpr MetricKind kE2E = MetricKind::kEndToEnd;
constexpr MetricKind kLayer = MetricKind::kPerLayer;

/// Batch-runner threads and the scenario's localize_threads, pinned
/// together on every workload (the service pins job_threads to the same).
constexpr unsigned kThreads = 2;
/// Set-ups per run; setup_s is their median. kSetupsBefore run before the
/// window, the rest are spread over the rounds after the proof set (each a
/// fresh workload, timed, then torn down), so drift of the host within a
/// run falls on set-up as it falls on the rounds.
constexpr std::size_t kSetups = 15;
constexpr std::size_t kSetupsBefore = 3;
/// Warm-up seed of set-up k is kWarmSeed + k: fixed, so set-up does the same
/// work for every --seed; distinct, so no set-up is served from a cache an
/// earlier one filled; and apart from every workload's job seeds.
constexpr std::uint64_t kWarmSeed = 0x7761726d00000000ull;
/// Probe seed stream, apart from the job seeds.
constexpr std::uint64_t kProbeStream = 0x70726f6265000000ull;

// Stage seconds, obs counters and spans all come from the obs layer; a
// build without it would report zeros that pass every check.
static_assert(obs::kEnabled, "the mission benchmark needs RFLY_OBS=ON");

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it (nearest-rank), so a tail figure always rests on data.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
std::optional<Tail> tail_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double rank = std::ceil(p / 100.0 * n);
    if (rank < 1.0) continue;
    const auto idx = static_cast<std::size_t>(rank) - 1;
    const std::size_t beyond = values.size() - 1 - idx;
    if (beyond >= 10) return Tail{p, values[idx], beyond};
  }
  return std::nullopt;
}

std::map<std::string, double> obs_values() {
  std::map<std::string, double> out;
  const obs::MetricsSnapshot snap = obs::snapshot();
  for (const auto& c : snap.counters) out[c.name] = static_cast<double>(c.value);
  for (const auto& g : snap.gauges) out[g.name] = g.value;
  return out;
}

double value_of(const std::map<std::string, double>& values, const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double ratio_or_nan(double num, double den) {
  return den > 0.0 ? num / den : std::nan("");
}

/// Record a ratio, or mark it absent when its denominator is zero.
void ratio_metric(Record& rec, const std::string& name, double num, double den,
                  const std::string& why_absent) {
  const double r = ratio_or_nan(num, den);
  if (std::isnan(r)) {
    rec.absent(kLayer, name, "fraction", why_absent);
  } else {
    rec.metric(kLayer, name, "fraction", r);
  }
}

// --- The benchmark's own spans ---------------------------------------------

/// Spans open only in traced rounds and probes. Every benchmark span name
/// starts with this prefix, which keeps it apart from the program's own
/// obs spans in the drained trace.
std::atomic<bool> g_tracing{false};
constexpr std::string_view kSpanPrefix = "bench.";

/// An obs::Span around one call the benchmark makes into a layer (or one
/// benchmark-side group of calls) while tracing; nothing otherwise.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) {
    if (g_tracing.load(std::memory_order_relaxed)) span_.emplace(name);
  }

 private:
  std::optional<obs::Span> span_;
};

/// Keep the benchmark's spans of a drained trace, drop the program's.
void keep_bench_spans(const obs::Trace& drained, obs::Trace& kept) {
  for (const auto& s : drained.spans) {
    if (std::string_view(s.name).starts_with(kSpanPrefix)) kept.spans.push_back(s);
  }
  kept.dropped += drained.dropped;
}

/// Calls, total and self seconds per span name. A span's children are the
/// benchmark spans opened beneath it on its thread, one after another, so
/// self = duration - sum(children).
std::map<std::string, SpanTotals> span_totals(const obs::Trace& trace) {
  std::map<std::pair<std::uint32_t, std::int64_t>, double> child_s;
  for (const auto& s : trace.spans) {
    if (s.parent >= 0) child_s[{s.thread, s.parent}] += s.seconds();
  }
  std::map<std::string, SpanTotals> totals;
  for (const auto& s : trace.spans) {
    SpanTotals& t = totals[s.name];
    ++t.calls;
    t.total_s += s.seconds();
    const auto it = child_s.find({s.thread, s.seq});
    t.self_s += std::max(0.0, s.seconds() - (it == child_s.end() ? 0.0 : it->second));
  }
  return totals;
}

std::uint64_t mix_digest(std::uint64_t state, std::uint64_t value) {
  return stream_seed(state ^ value, 0x9e3779b97f4a7c15ull);
}

// --- Jobs and rounds ------------------------------------------------------

struct Job {
  /// The full report is kept only for the first job of each distinct
  /// mission in the proof set; other jobs keep the seed, stage trace,
  /// timings and digest. Memory then does not grow with the rounds a
  /// machine completes or with repeated jobs.
  sim::BatchResult result;
  std::uint64_t digest = 0;  // service::deterministic_digest(result)
  bool ok = false;
  /// service_mixed: served from the ResultCache (its stage trace is the
  /// original run's, so it is left out of per-stage costs).
  bool cached = false;
  bool repeat = false;  // the generator chose an already-returned pair
  double latency_ms = 0.0;
  double rtt_ms = 0.0;
};

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process user + system time over the round
  bool traced = false;
  std::vector<Job> jobs;
  std::optional<sim::BatchRunInfo> info;

  double ok_jobs() const {
    double n = 0.0;
    for (const auto& j : jobs) n += j.ok ? 1.0 : 0.0;
    return n;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Rounds in the fixed proof set (always run, however long they take).
  virtual std::size_t proof_rounds() const = 0;
  virtual Round run_round(std::size_t index) = 0;
  /// Ground-truth tag positions in global tag order (report item order).
  virtual const std::vector<Vec3>& truth() const = 0;
  virtual void pins(Record& rec) const = 0;
  /// Layer metrics only this workload can produce (batch / fleet / service).
  virtual void layer_metrics(const std::vector<Round>& rounds, std::size_t proof,
                             const std::map<std::string, double>& proof_delta,
                             Record& rec) const = 0;
  /// Correctness checks beyond the shared ones (parity, digests).
  virtual void check(const std::vector<Round>& rounds, std::size_t proof, Record& rec) = 0;
  /// Timed calls into each layer (traced runs only).
  virtual void probe(const std::vector<Round>& rounds, std::size_t proof, Record& rec) = 0;
};

sim::Scenario pinned(sim::Scenario s) {
  s.localize_threads = kThreads;
  return s;
}

sim::Scenario preset_or_die(const std::string& name) {
  auto s = sim::preset(name);
  if (!s.ok()) throw std::runtime_error("preset " + name + ": " + s.status().to_string());
  return *s;
}

void validate_or_die(const sim::Scenario& s) {
  const Status st = sim::validate(s);
  if (!st.is_ok()) throw std::runtime_error("scenario " + s.name + ": " + st.to_string());
}

std::vector<Vec3> tag_positions(const sim::Scenario& s) {
  std::vector<Vec3> out;
  out.reserve(s.tags.size());
  for (const auto& t : s.tags) out.push_back(t.position);
  return out;
}

// --- Layer probes shared by every workload --------------------------------

/// Time drone flight, the forward measurement plane, SAR, peak extraction
/// and Gen2 inventory by calling their public functions on inputs derived
/// from `scenario` (a single-relay mission) and `population` (the tags the
/// workload's inventory rounds see).
void probe_pipeline_layers(const sim::Scenario& scenario,
                           const std::vector<core::TagPlacement>& population,
                           std::uint64_t seed, Record& rec) {
  BenchSpan probe_span("bench.probe.pipeline");
  sim::MissionInputs inputs;
  {
    BenchSpan span("bench.sim.scenario.materialize");
    inputs = sim::materialize(scenario);
  }

  // Flight and the forward measurement plane, one channel eval per waypoint.
  const core::RflySystem system(inputs.config.system, inputs.environment,
                                inputs.reader_position);
  std::vector<double> fly_ns, plane_ns;
  std::size_t waypoints = 0;
  for (int rep = 0; rep < 7; ++rep) {
    Rng rng(stream_seed(seed, kProbeStream + static_cast<std::uint64_t>(rep)));
    std::uint64_t t0 = now_ns();
    std::vector<drone::FlownPoint> flight;
    {
      BenchSpan span("bench.drone.fly");
      flight = drone::fly(inputs.plan, inputs.config.flight, inputs.config.tracking, rng);
    }
    fly_ns.push_back(static_cast<double>(now_ns() - t0));
    t0 = now_ns();
    {
      BenchSpan span("bench.core.forward_plane.build");
      const core::ForwardPlane plane = core::ForwardPlane::build(system, flight);
      waypoints = plane.size();
    }
    plane_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  const double wp = static_cast<double>(std::max<std::size_t>(waypoints, 1));
  rec.metric(kLayer, "drone.fly_ns_per_waypoint", "ns", median(fly_ns) / wp);
  rec.metric(kLayer, "measure.ns_per_channel_eval", "ns", median(plane_ns) / wp);

  // Disentangled half-link sets, exactly as the mission hands them to SAR.
  std::vector<sim::DeferredLocalize> tasks;
  {
    BenchSpan span("bench.sim.pipeline.run_mission_pipeline");
    const auto run = sim::run_mission_pipeline(inputs.config, inputs.environment,
                                               inputs.reader_position, inputs.plan,
                                               inputs.tags, inputs.db, seed, {}, &tasks);
    if (!run.ok()) tasks.clear();
  }
  if (tasks.size() > 6) tasks.resize(6);
  if (tasks.empty()) {
    for (const char* name : {"sar.ns_per_cell", "sar.multi_ns_per_cell"}) {
      rec.absent(kLayer, name, "ns", "probe mission deferred no localize task");
    }
    rec.absent(kLayer, "peak.find_us_per_map", "us", "probe mission deferred no localize task");
    rec.absent(kLayer, "peak.candidates_per_map", "count",
               "probe mission deferred no localize task");
  } else {
    std::vector<localize::Heatmap> maps(tasks.size());
    double cells = 0.0;
    for (const auto& t : tasks) {
      const localize::GridSpec grid = localize::localize_scan_grid(t.config);
      cells += static_cast<double>(grid.nx() * grid.ny());
    }
    std::vector<double> pass_ns;
    for (int pass = 0; pass < 3; ++pass) {
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto& t = tasks[i];
        BenchSpan span("bench.localize.sar.sar_heatmap");
        maps[i] = localize::sar_heatmap(t.half_link, localize::localize_scan_grid(t.config),
                                        t.config.freq_hz, t.config.z_plane_m, kThreads,
                                        t.config.kernel);
      }
      pass_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    rec.metric(kLayer, "sar.ns_per_cell", "ns", median(pass_ns) / cells);

    // Multi-tag sweep: four tags sharing the first task's trajectory.
    const auto& first = tasks.front();
    const localize::SharedTrajectory traj =
        localize::SharedTrajectory::from(first.half_link.positions);
    const localize::SharedGrid grid =
        localize::SharedGrid::from(localize::localize_scan_grid(first.config));
    const std::size_t plane_cells = grid.spec.nx() * grid.spec.ny();
    constexpr std::size_t kMultiTags = 4;
    std::vector<double> hre, him;
    for (const auto& h : first.half_link.channels) {
      hre.push_back(h.real());
      him.push_back(h.imag());
    }
    std::vector<std::vector<double>> planes(kMultiTags, std::vector<double>(plane_cells));
    std::vector<localize::MultiTagSlot> slots;
    for (auto& plane : planes) slots.push_back({hre.data(), him.data(), plane.data()});
    std::vector<double> multi_ns;
    for (int pass = 0; pass < 3; ++pass) {
      const std::uint64_t t0 = now_ns();
      BenchSpan span("bench.localize.sar.sar_heatmap_multi");
      localize::sar_heatmap_multi(traj, grid, first.config.freq_hz, first.config.z_plane_m,
                                  slots.data(), slots.size(), kThreads, first.config.kernel);
      multi_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    rec.metric(kLayer, "sar.multi_ns_per_cell", "ns",
               median(multi_ns) / static_cast<double>(plane_cells * kMultiTags));

    std::vector<double> peak_ns;
    double candidates = 0.0;
    for (int pass = 0; pass < 5; ++pass) {
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < maps.size(); ++i) {
        const auto& cfg = tasks[i].config;
        std::vector<localize::Peak> found;
        {
          BenchSpan span("bench.localize.peak.find_peaks");
          found = localize::find_peaks(maps[i], cfg.peak_threshold_fraction);
        }
        if (pass == 0) candidates += static_cast<double>(found.size());
        BenchSpan span("bench.localize.peak.select_peak");
        (void)localize::select_peak(std::move(found), cfg.selection, tasks[i].half_link.positions);
      }
      peak_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    const double n_maps = static_cast<double>(maps.size());
    rec.metric(kLayer, "peak.find_us_per_map", "us", median(peak_ns) * 1e-3 / n_maps);
    rec.metric(kLayer, "peak.candidates_per_map", "count", candidates / n_maps);
  }

  // Gen2 inventory over the whole population, every tag powered: the
  // round's cost per slot per tag, the unit of its O(slots x tags) loop.
  std::vector<double> slot_tag_ns;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<gen2::Tag> machines;
    machines.reserve(population.size());
    for (std::size_t i = 0; i < population.size(); ++i) {
      machines.emplace_back(population[i].config, stream_seed(seed, kProbeStream + 100 + i));
    }
    std::vector<core::TagAgent> agents;
    for (auto& m : machines) agents.push_back({&m, 0.0, 30.0});
    reader::QAlgorithm q_algo(static_cast<double>(inputs.config.inventory.q));
    Rng rng(stream_seed(seed, kProbeStream + 50 + static_cast<std::uint64_t>(pass)));
    const std::uint64_t t0 = now_ns();
    core::InventoryOutcome outcome;
    {
      BenchSpan span("bench.core.inventory.run_inventory");
      outcome = core::run_inventory(agents, inputs.config.inventory, q_algo, rng);
    }
    const double ns = static_cast<double>(now_ns() - t0);
    const double slot_tags =
        static_cast<double>(std::max(outcome.slots, 1)) * static_cast<double>(agents.size());
    slot_tag_ns.push_back(ns / slot_tags);
  }
  rec.metric(kLayer, "inventory.ns_per_slot_tag", "ns", median(slot_tag_ns));
}

// --- warehouse_sweep / warehouse_repeat -----------------------------------

class WarehouseWorkload : public Workload {
 public:
  WarehouseWorkload(bool repeat, std::uint64_t seed, std::uint64_t warm_seed)
      : repeat_(repeat), seed_(seed), scenario_(pinned(preset_or_die("warehouse"))) {
    validate_or_die(scenario_);
    inputs_ = sim::materialize(scenario_);
    truth_ = tag_positions(scenario_);
    // Warm-up: ISA dispatch, pool spin-up, first touch of the caches.
    (void)localize::sar_kernel_active();
    if (repeat_) {
      (void)sim::run_batch(std::vector<sim::BatchJob>(4, {scenario_, warm_seed}), config());
    } else {
      (void)sim::run_seed_sweep(scenario_, warm_seed, 2, config());
    }
  }

  std::size_t proof_rounds() const override { return repeat_ ? 96 : 8; }

  Round run_round(std::size_t index) override {
    Round round;
    sim::BatchRunInfo info;
    const std::uint64_t t0 = now_ns();
    std::vector<sim::BatchResult> results;
    if (repeat_) {
      // One run_batch of identical (scenario, seed) jobs: the re-flown route.
      const std::vector<sim::BatchJob> jobs(kRepeatJobs, {scenario_, pair_seed(index)});
      BenchSpan span("bench.sim.batch.run_batch");
      results = sim::run_batch(jobs, config(), &info);
    } else {
      BenchSpan span("bench.sim.batch.run_seed_sweep");
      results = sim::run_seed_sweep(scenario_, stream_seed(seed_, index), kSweepSeeds,
                                    config(), &info);
    }
    round.wall_s = seconds_since(t0);
    round.info = info;
    for (auto& r : results) {
      Job job;
      job.ok = r.status.is_ok();
      job.result = std::move(r);
      round.jobs.push_back(std::move(job));
    }
    return round;
  }

  const std::vector<Vec3>& truth() const override { return truth_; }

  void pins(Record& rec) const override {
    rec.pin("batch_threads", kThreads);
    rec.pin("localize_threads", kThreads);
    rec.pin(repeat_ ? "jobs_per_round" : "seeds_per_round",
            repeat_ ? kRepeatJobs : kSweepSeeds);
  }

  void layer_metrics(const std::vector<Round>& rounds, std::size_t proof,
                     const std::map<std::string, double>&, Record& rec) const override {
    batch_metrics(rounds, proof, rec);
  }

  void check(const std::vector<Round>& rounds, std::size_t, Record& rec) override {
    // A sample of batched results must be bit-identical (every
    // deterministic field) to the same job run with BatchMode::kPerMission.
    const auto& jobs = rounds.front().jobs;
    std::size_t mismatches = 0, compared = 0;
    for (std::size_t i : {std::size_t{0}, jobs.size() - 1}) {
      if (!jobs[i].ok) continue;
      sim::BatchConfig per_mission = config();
      per_mission.mode = sim::BatchMode::kPerMission;
      const auto again = sim::run_batch({{scenario_, jobs[i].result.seed}}, per_mission);
      ++compared;
      if (again.size() != 1 || service::deterministic_digest(again[0]) != jobs[i].digest) {
        ++mismatches;
      }
    }
    rec.check("per_mission_parity", mismatches == 0 && compared > 0,
              std::to_string(compared) + " sampled jobs re-run per-mission, " +
                  std::to_string(mismatches) + " differ");
    if (repeat_) {
      // Identical jobs must produce identical outputs within every round.
      std::size_t divergent = 0;
      for (const auto& r : rounds) {
        for (const auto& j : r.jobs) {
          if (j.digest != r.jobs.front().digest) ++divergent;
        }
      }
      rec.check("identical_jobs_agree", divergent == 0,
                std::to_string(divergent) + " jobs differ from their round's first");
    }
  }

  void probe(const std::vector<Round>&, std::size_t, Record& rec) override {
    probe_pipeline_layers(scenario_, inputs_.tags, stream_seed(seed_, kProbeStream), rec);
  }

  /// Batch-runner sharing figures summed over the proof set.
  static void batch_metrics(const std::vector<Round>& rounds, std::size_t proof, Record& rec) {
    double deferred = 0, distinct = 0, groups = 0, hits = 0, misses = 0, arena = 0;
    for (std::size_t i = 0; i < proof; ++i) {
      const auto& info = *rounds[i].info;
      deferred += static_cast<double>(info.deferred_tasks);
      distinct += static_cast<double>(info.distinct_tasks);
      groups += static_cast<double>(info.plane_groups);
      hits += static_cast<double>(info.cache_hits);
      misses += static_cast<double>(info.cache_misses);
      arena = std::max(arena, static_cast<double>(info.arena_high_water_bytes));
    }
    rec.metric(kLayer, "batch.deferred_tasks", "count", deferred);
    rec.metric(kLayer, "batch.distinct_tasks", "count", distinct);
    ratio_metric(rec, "batch.dedup_ratio", distinct, deferred, "no localize stage was deferred");
    rec.metric(kLayer, "batch.plane_groups", "count", groups);
    ratio_metric(rec, "batch.geometry_cache_hit_ratio", hits, hits + misses,
                 "no GeometryCache lookup");
    rec.metric(kLayer, "batch.arena_high_water_bytes", "bytes", arena);
    rec.work("batch.deferred_tasks", static_cast<std::uint64_t>(deferred));
    rec.work("batch.distinct_tasks", static_cast<std::uint64_t>(distinct));
  }

 private:
  static constexpr std::size_t kSweepSeeds = 12;
  static constexpr std::size_t kRepeatJobs = 16;

  sim::BatchConfig config() const { return sim::BatchConfig{kThreads}; }
  std::uint64_t pair_seed(std::size_t index) const {
    return stream_seed(stream_seed(seed_, 0x7265706561740000ull), index);
  }

  bool repeat_;
  std::uint64_t seed_;
  sim::Scenario scenario_;
  sim::MissionInputs inputs_;
  std::vector<Vec3> truth_;
};

// --- fleet_1000 -------------------------------------------------------------

/// fleet_warehouse with `n_tags` seeded tags along its three aisles on the
/// coarse grid (0.1 m cells, 1.5 m half-width), the way the fleet sweep
/// bench builds its populations.
sim::Scenario fleet_population(std::uint32_t n_tags, std::uint64_t seed) {
  sim::Scenario s = pinned(preset_or_die("fleet_warehouse"));
  s.grid_resolution_m = 0.1;
  s.search_halfwidth_m = 1.5;
  s.tags.clear();
  Rng placement(seed);
  for (std::uint32_t i = 0; i < n_tags; ++i) {
    const double aisle_y = 5.0 + 10.0 * static_cast<double>(i % 3);
    s.tags.push_back({i,
                      {placement.uniform(8.0, 32.0), aisle_y + placement.uniform(-1.0, 1.0), 0.0},
                      "tag " + std::to_string(i)});
  }
  return s;
}

class FleetWorkload : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, std::uint64_t warm_seed)
      : seed_(seed), scenario_(fleet_population(kTags, seed)) {
    validate_or_die(scenario_);
    inputs_ = sim::materialize(scenario_);
    truth_ = tag_positions(scenario_);
    // Warm-up on a 100-tag population: the same code paths, a tenth of the
    // quadratic inventory round.
    (void)localize::sar_kernel_active();
    const sim::Scenario warm = fleet_population(100, warm_seed);
    validate_or_die(warm);
    (void)sim::run_fleet_mission(sim::materialize(warm), warm_seed);
  }

  std::size_t proof_rounds() const override { return 2; }

  Round run_round(std::size_t index) override {
    Round round;
    Job job;
    job.result.scenario_name = scenario_.name;
    job.result.seed = stream_seed(seed_, index);
    const std::uint64_t t0 = now_ns();
    {
      BenchSpan span("bench.sim.fleet.run_fleet_mission");
      auto run = sim::run_fleet_mission(inputs_, job.result.seed);
      if (run.ok()) {
        job.result.run = std::move(*run);
      } else {
        job.result.status = run.status();
      }
    }
    round.wall_s = seconds_since(t0);
    job.ok = job.result.status.is_ok();
    round.jobs.push_back(std::move(job));
    return round;
  }

  const std::vector<Vec3>& truth() const override { return truth_; }

  void pins(Record& rec) const override {
    rec.pin("localize_threads", kThreads);
    rec.pin("tags", kTags);
    rec.pin("missions_per_round", 1);
  }

  void layer_metrics(const std::vector<Round>& rounds, std::size_t,
                     const std::map<std::string, double>&, Record& rec) const override {
    // Wall of run_fleet_mission not covered by any pipeline stage: the
    // shared Gen2 round, partitioning and planning.
    double wall = 0.0, unattributed = 0.0, missions = 0.0;
    for (const auto& r : rounds) {
      for (const auto& j : r.jobs) {
        if (!j.ok) continue;
        double staged = 0.0;
        for (const auto& st : j.result.run.trace) staged += st.seconds;
        wall += r.wall_s;
        unattributed += r.wall_s - staged;
        missions += 1.0;
      }
    }
    if (missions > 0.0) {
      rec.metric(kLayer, "fleet.unattributed_s", "s", unattributed / missions,
                 "per mission: run_fleet_mission wall minus summed stage seconds");
      rec.metric(kLayer, "fleet.unattributed_frac", "fraction", unattributed / wall);
    }
  }

  void check(const std::vector<Round>& rounds, std::size_t proof, Record& rec) override {
    std::size_t bad = 0;
    for (std::size_t i = 0; i < proof; ++i) {
      for (const auto& j : rounds[i].jobs) {
        if (j.ok && j.result.run.report.items.size() != truth_.size()) ++bad;
      }
    }
    rec.check("items_in_tag_order", bad == 0,
              std::to_string(bad) + " missions report a different item count than tags");
  }

  void probe(const std::vector<Round>&, std::size_t, Record& rec) override {
    // Fleet route planning over the scenario's legs under its budget.
    sim::FleetPlanConfig cfg;
    cfg.planner = scenario_.fleet.planner;
    cfg.energy.hover_power_w = scenario_.fleet.hover_power_w;
    cfg.energy.travel_power_w = scenario_.fleet.travel_power_w;
    cfg.energy.speed_mps = scenario_.fleet.speed_mps;
    cfg.energy.dwell_s = scenario_.fleet.dwell_s;
    cfg.battery_j = scenario_.fleet.battery_j;
    std::vector<sim::FleetPlanLeg> legs;
    std::size_t offset = 0;
    for (std::size_t n : inputs_.leg_sizes) {
      sim::FleetPlanLeg leg;
      leg.waypoints.assign(inputs_.plan.begin() + static_cast<std::ptrdiff_t>(offset),
                           inputs_.plan.begin() + static_cast<std::ptrdiff_t>(offset + n));
      legs.push_back(std::move(leg));
      offset += n;
    }
    std::vector<double> plan_ns;
    for (int rep = 0; rep < 21; ++rep) {
      const std::uint64_t t0 = now_ns();
      BenchSpan span("bench.sim.fleet_plan.plan_fleet_route");
      (void)sim::plan_fleet_route(legs, cfg);
      plan_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    rec.metric(kLayer, "fleet.plan_us", "us", median(plan_ns) * 1e-3);

    // SAR and peak probes on a single-relay mission over the first nine
    // tags at the fleet's grid; inventory over all 1000 tags.
    sim::Scenario single = scenario_;
    single.fleet = sim::FleetSpec{};
    single.tags.resize(9);
    probe_pipeline_layers(single, inputs_.tags, stream_seed(seed_, kProbeStream), rec);
  }

 private:
  static constexpr std::uint32_t kTags = 1000;

  std::uint64_t seed_;
  sim::Scenario scenario_;
  sim::MissionInputs inputs_;
  std::vector<Vec3> truth_;
};

// --- service_mixed ----------------------------------------------------------

/// One client's job stream. After the first job, each submission repeats a
/// pair this client already got back with probability 3/4, else it is a new
/// pair; new pairs of different clients never collide. Which submissions
/// hit the ResultCache therefore depends only on the seed.
class PairStream {
 public:
  PairStream(std::uint64_t seed, std::size_t client)
      : rng_(stream_seed(seed, 0x636c69656e740000ull + client)),
        base_(stream_seed(seed, 0x7061697273000000ull + client)) {}

  /// Next engine seed to submit, and whether it repeats a returned pair.
  std::pair<std::uint64_t, bool> next() {
    const bool repeat = !returned_.empty() && rng_.uniform(0.0, 1.0) < 0.75;
    if (repeat) {
      const auto pick = rng_.uniform_int(0, static_cast<std::int64_t>(returned_.size()) - 1);
      return {returned_[static_cast<std::size_t>(pick)], true};
    }
    return {stream_seed(base_, next_new_++), false};
  }

  void returned(std::uint64_t seed, bool repeat) {
    if (repeat) return;
    returned_.push_back(seed);
    if (returned_.size() > kRecent) returned_.pop_front();
  }

 private:
  static constexpr std::size_t kRecent = 32;  // well inside the cache's FIFO
  Rng rng_;
  std::uint64_t base_;
  std::uint64_t next_new_ = 0;
  std::deque<std::uint64_t> returned_;
};

class ServiceWorkload : public Workload {
 public:
  ServiceWorkload(std::uint64_t seed, std::uint64_t warm_seed)
      : seed_(seed), scenario_(pinned(preset_or_die("through_wall"))) {
    validate_or_die(scenario_);
    text_ = sim::serialize(scenario_);
    truth_ = tag_positions(scenario_);
    service::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.job_threads = kThreads;
    service_ = std::make_unique<service::MissionService>(cfg);
    const Status st = service_->start();
    if (!st.is_ok()) throw std::runtime_error("service start: " + st.to_string());
    for (std::size_t c = 0; c < kClients; ++c) {
      auto client = service::Client::connect(service_->port());
      if (!client.ok()) throw std::runtime_error("connect: " + client.status().to_string());
      clients_.push_back(std::move(*client));
      streams_.emplace_back(seed_, c);
    }
    // Warm-up: one cold mission per connection, on pairs outside the stream.
    (void)localize::sar_kernel_active();
    for (std::size_t c = 0; c < kClients; ++c) {
      (void)clients_[c].run(text_, stream_seed(warm_seed, c));
    }
  }

  ~ServiceWorkload() override {
    clients_.clear();
    service_->request_shutdown(true);
    service_->wait();
  }

  std::size_t proof_rounds() const override { return 16; }

  Round run_round(std::size_t) override {
    Round round;
    std::vector<std::vector<Job>> per_client(kClients);
    std::vector<std::thread> threads;
    const std::uint64_t t0 = now_ns();
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([this, c, &per_client] { per_client[c] = client_round(c); });
    }
    for (auto& t : threads) t.join();
    round.wall_s = seconds_since(t0);
    for (auto& jobs : per_client) {
      for (auto& j : jobs) round.jobs.push_back(std::move(j));
    }
    return round;
  }

  const std::vector<Vec3>& truth() const override { return truth_; }

  void pins(Record& rec) const override {
    rec.pin("service_workers", 1);
    rec.pin("job_threads", kThreads);
    rec.pin("localize_threads", kThreads);
    rec.pin("clients", kClients);
    rec.pin("jobs_per_client_per_round", kJobsPerClient);
  }

  void layer_metrics(const std::vector<Round>& rounds, std::size_t proof,
                     const std::map<std::string, double>& proof_delta,
                     Record& rec) const override {
    std::vector<double> rtt, run_ms, wait_ms;
    for (const auto& r : rounds) {
      if (r.traced) continue;
      for (const auto& j : r.jobs) {
        if (!j.ok) continue;
        rtt.push_back(j.rtt_ms);
        if (!j.cached) {
          const double run = j.result.run.total_seconds * 1e3;
          run_ms.push_back(run);
          wait_ms.push_back(j.latency_ms - run - j.rtt_ms);
        }
      }
    }
    rec.metric(kLayer, "service.submit_rtt_ms", "ms", median(rtt));
    rec.metric(kLayer, "service.run_ms", "ms", median(run_ms), "cold jobs");
    rec.metric(kLayer, "service.queue_wait_ms", "ms", median(wait_ms),
               "cold jobs: latency - run - submit RTT");
    const double hits = value_of(proof_delta, "service.cache.hits");
    const double misses = value_of(proof_delta, "service.cache.misses");
    ratio_metric(rec, "service.cache_hit_ratio", hits, hits + misses, "no SUBMIT");
    rec.metric(kLayer, "service.rejected", "count", value_of(proof_delta, "service.rejected"));
    rec.work("service.cache.hits", static_cast<std::uint64_t>(hits));
    rec.work("service.cache.misses", static_cast<std::uint64_t>(misses));
    rec.work("service.simulated",
             static_cast<std::uint64_t>(value_of(proof_delta, "service.simulated")));

    // The generator alone decides which submissions repeat a returned pair;
    // each of those must have been a ResultCache hit.
    double repeats = 0.0;
    for (std::size_t i = 0; i < proof; ++i) {
      for (const auto& j : rounds[i].jobs) repeats += j.repeat ? 1.0 : 0.0;
    }
    rec.check("cache_hits_match_repeats", repeats == hits,
              std::to_string(static_cast<long long>(repeats)) + " repeats, " +
                  std::to_string(static_cast<long long>(hits)) + " cache hits");
  }

  void check(const std::vector<Round>& rounds, std::size_t proof, Record& rec) override {
    // Every result the service returned for a pair must carry one digest;
    // every pair of the proof set must match a direct run_batch.
    std::map<std::uint64_t, std::uint64_t> served;
    std::size_t inconsistent = 0;
    for (const auto& r : rounds) {
      for (const auto& j : r.jobs) {
        if (!j.ok) continue;
        const auto [it, fresh] = served.emplace(j.result.seed, j.digest);
        if (!fresh && it->second != j.digest) ++inconsistent;
      }
    }
    rec.check("service_repeats_consistent", inconsistent == 0,
              std::to_string(inconsistent) + " results differ from the first result of their pair");

    std::map<std::uint64_t, std::uint64_t> proof_pairs;
    for (std::size_t i = 0; i < proof; ++i) {
      for (const auto& j : rounds[i].jobs) {
        if (j.ok) proof_pairs.emplace(j.result.seed, j.digest);
      }
    }
    auto parsed = sim::parse_scenario(text_);
    std::size_t mismatches = 0;
    if (!parsed.ok()) {
      mismatches = proof_pairs.size();
    } else {
      std::vector<sim::BatchJob> jobs;
      for (const auto& [seed, digest] : proof_pairs) jobs.push_back({*parsed, seed});
      // Untimed, so it may use every core; results do not depend on it.
      const auto direct = sim::run_batch(jobs, sim::BatchConfig{0});
      std::size_t i = 0;
      for (const auto& [seed, digest] : proof_pairs) {
        if (service::deterministic_digest(direct[i++]) != digest) ++mismatches;
      }
    }
    rec.check("service_matches_direct_run_batch", mismatches == 0 && !proof_pairs.empty(),
              std::to_string(proof_pairs.size()) + " proof-set pairs re-run directly, " +
                  std::to_string(mismatches) + " differ");
  }

  void probe(const std::vector<Round>& rounds, std::size_t proof, Record& rec) override {
    // Wire codec on distinct results the service returned in the proof set.
    std::vector<const sim::BatchResult*> sample;
    std::map<std::uint64_t, bool> seen;
    for (std::size_t i = 0; i < proof; ++i) {
      for (const auto& j : rounds[i].jobs) {
        if (j.ok && sample.size() < 32 && seen.emplace(j.result.seed, true).second) {
          sample.push_back(&j.result);
        }
      }
    }
    std::vector<double> enc_ns, dec_ns, sizes;
    for (int pass = 0; pass < 9; ++pass) {
      double enc = 0.0, dec = 0.0;
      for (const auto* r : sample) {
        std::uint64_t t0 = now_ns();
        service::WireWriter w;
        {
          BenchSpan span("bench.service.wire.encode_batch_result");
          service::encode_batch_result(w, *r);
        }
        enc += static_cast<double>(now_ns() - t0);
        const std::string bytes = w.take();
        if (pass == 0) sizes.push_back(static_cast<double>(bytes.size()));
        t0 = now_ns();
        service::WireReader reader(bytes);
        sim::BatchResult back;
        {
          BenchSpan span("bench.service.wire.decode_batch_result");
          (void)service::decode_batch_result(reader, back);
        }
        dec += static_cast<double>(now_ns() - t0);
      }
      enc_ns.push_back(enc / static_cast<double>(sample.size()));
      dec_ns.push_back(dec / static_cast<double>(sample.size()));
    }
    rec.metric(kLayer, "service.result_bytes", "bytes", median(sizes));
    rec.metric(kLayer, "service.codec_encode_us", "us", median(enc_ns) * 1e-3);
    rec.metric(kLayer, "service.codec_decode_us", "us", median(dec_ns) * 1e-3);

    const sim::MissionInputs inputs = sim::materialize(scenario_);
    probe_pipeline_layers(scenario_, inputs.tags, stream_seed(seed_, kProbeStream), rec);
  }

 private:
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kJobsPerClient = 64;

  /// One closed-loop connection: SUBMIT, wait for the RESULT, repeat.
  std::vector<Job> client_round(std::size_t c) {
    std::vector<Job> jobs;
    BenchSpan round_span("bench.client_round");
    try {
      for (std::size_t n = 0; n < kJobsPerClient; ++n) {
        const auto [seed, repeat] = streams_[c].next();
        Job job;
        job.repeat = repeat;
        job.result.seed = seed;
        BenchSpan job_span("bench.service_job");
        const std::uint64_t t0 = now_ns();
        Expected<service::Client::SubmitAck> ack = Status{StatusCode::kUnavailable, "unsent"};
        {
          BenchSpan span("bench.service.client.submit");
          ack = clients_[c].submit(text_, seed);
        }
        const std::uint64_t t1 = now_ns();
        if (ack.ok()) {
          job.cached = ack->cached;
          BenchSpan span("bench.service.client.result");
          auto result = clients_[c].result(ack->job_id, true);
          if (result.ok()) {
            job.result = std::move(*result);
            job.ok = job.result.status.is_ok();
          }
        }
        const std::uint64_t t2 = now_ns();
        job.rtt_ms = static_cast<double>(t1 - t0) * 1e-6;
        job.latency_ms = static_cast<double>(t2 - t0) * 1e-6;
        if (job.ok) streams_[c].returned(seed, repeat);
        jobs.push_back(std::move(job));
      }
    } catch (const std::exception& e) {
      // Keep the jobs that finished; the missing ones count as failed.
      std::fprintf(stderr, "client %zu: %s\n", c, e.what());
      while (jobs.size() < kJobsPerClient) jobs.emplace_back();
    }
    return jobs;
  }

  std::uint64_t seed_;
  sim::Scenario scenario_;
  std::string text_;
  std::vector<Vec3> truth_;
  std::unique_ptr<service::MissionService> service_;
  std::vector<service::Client> clients_;
  std::vector<PairStream> streams_;
};

// --- Main -------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        std::uint64_t warm_seed) {
  if (name == "warehouse_sweep") return std::make_unique<WarehouseWorkload>(false, seed, warm_seed);
  if (name == "warehouse_repeat") return std::make_unique<WarehouseWorkload>(true, seed, warm_seed);
  if (name == "fleet_1000") return std::make_unique<FleetWorkload>(seed, warm_seed);
  if (name == "service_mixed") return std::make_unique<ServiceWorkload>(seed, warm_seed);
  return nullptr;
}

/// Every metric a record carries, with its unit. Anything a workload does
/// not produce is listed as absent, with the reason.
struct MetricSpec {
  std::string name;
  std::string unit;
  MetricKind kind;
};
std::vector<MetricSpec> metric_specs() {
  std::vector<MetricSpec> s = {
      {"missions_per_s", "1/s", kE2E},          {"latency_p50_ms", "ms", kE2E},
      {"latency_tail_ms", "ms", kE2E},          {"setup_s", "s", kE2E},
      {"peak_rss_mb", "MB", kE2E},              {"failed_fraction", "fraction", kE2E},
      {"localized_fraction", "fraction", kE2E}, {"loc_error_p50_m", "m", kE2E},
      {"loc_error_p90_m", "m", kE2E},
  };
  for (std::size_t st = 0; st < sim::kStageCount; ++st) {
    const std::string stage = std::string("stage.") + sim::stage_name(static_cast<sim::Stage>(st));
    s.push_back({stage + "_s", "s", kLayer});
    s.push_back({stage + "_calls", "count", kLayer});
  }
  for (const char* name : {"gen2.slots", "gen2.collisions", "gen2.rounds", "gen2.epcs_read",
                           "inventory.slots_per_tag", "measure.channel_evals",
                           "measure.plane_builds", "sar.cells", "peak.candidates_per_map",
                           "batch.deferred_tasks", "batch.distinct_tasks", "batch.plane_groups",
                           "service.rejected", "pool.jobs", "pool.chunks", "pool.serial_jobs"}) {
    s.push_back({name, "count", kLayer});
  }
  for (const char* name : {"fleet.unattributed_frac", "measure.plane_cache_hit_ratio",
                           "batch.dedup_ratio", "batch.geometry_cache_hit_ratio",
                           "service.cache_hit_ratio", "trace.overhead_frac"}) {
    s.push_back({name, "fraction", kLayer});
  }
  for (const char* name : {"inventory.ns_per_slot_tag", "drone.fly_ns_per_waypoint",
                           "measure.ns_per_channel_eval", "sar.ns_per_cell",
                           "sar.multi_ns_per_cell"}) {
    s.push_back({name, "ns", kLayer});
  }
  for (const char* name : {"fleet.plan_us", "peak.find_us_per_map", "service.codec_encode_us",
                           "service.codec_decode_us"}) {
    s.push_back({name, "us", kLayer});
  }
  s.push_back({"setup.cold_s", "s", kLayer});
  s.push_back({"fleet.unattributed_s", "s", kLayer});
  s.push_back({"batch.arena_high_water_bytes", "bytes", kLayer});
  s.push_back({"service.result_bytes", "bytes", kLayer});
  for (const char* name : {"service.submit_rtt_ms", "service.run_ms", "service.queue_wait_ms"}) {
    s.push_back({name, "ms", kLayer});
  }
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string record_path;
  std::string trace_path;
};

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return false;
        opt.trace = value == "1";
      } else if (arg == "--record") {
        opt.record_path = value;
      } else if (arg == "--trace-out") {
        opt.trace_path = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !opt.workload.empty() && opt.seconds > 0.0;
}

/// Process CPU time (user + system, every thread) in seconds.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int run(const Options& opt) {
  Record rec;
  rec.fact("workload", opt.workload);
  rec.fact("seed", std::to_string(opt.seed));
  rec.fact("compiler", PERFBENCH_COMPILER);
  rec.fact("build_type", PERFBENCH_BUILD_TYPE);
  rec.fact("cxx_flags", PERFBENCH_CXX_FLAGS);
  rec.fact("rfly_obs", obs::kEnabled ? "ON" : "OFF");
  rec.fact("hardware_concurrency", std::to_string(std::thread::hardware_concurrency()));
  rec.fact("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  rec.fact("trace", opt.trace ? "1" : "0");

  // Set-up, each time on its own warm-up seed. The first also pays the
  // process's one-time costs (SAR and forward kernel ISA dispatch,
  // thread-pool spin-up, first touch of memory).
  std::vector<double> setup_s;
  auto set_up = [&]() {
    const std::uint64_t t0 = now_ns();
    auto made = make_workload(opt.workload, opt.seed, kWarmSeed + setup_s.size());
    setup_s.push_back(seconds_since(t0));
    return made;
  };
  std::unique_ptr<Workload> w;
  while (setup_s.size() < kSetupsBefore) {
    w.reset();
    w = set_up();
    if (!w) {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  }
  rec.fact("sar_isa", localize::sar_kernel_active().isa);
  w->pins(rec);

  // Measured window: the proof set first, then rounds until time is up. In
  // a traced run the rounds after the proof set alternate untraced, traced,
  // so host drift falls on both kinds alike.
  const std::size_t proof = w->proof_rounds();
  const std::map<std::string, double> before = obs_values();
  std::map<std::string, double> after_proof;
  double rss_mb = 0.0;
  std::vector<Round> rounds;
  std::map<std::uint64_t, bool> kept;  // seeds whose full report is kept
  obs::Trace spans;                    // the benchmark's spans, traced rounds and probes
  auto run_round = [&](bool traced) {
    Round r;
    if (opt.trace) (void)obs::drain_trace();  // discard the program's spans so far
    g_tracing.store(traced, std::memory_order_relaxed);
    const double cpu0 = process_cpu_s();
    {
      BenchSpan span("bench.round");
      r = w->run_round(rounds.size());
    }
    r.cpu_s = process_cpu_s() - cpu0;
    g_tracing.store(false, std::memory_order_relaxed);
    if (traced) keep_bench_spans(obs::drain_trace(), spans);
    r.traced = traced;
    for (auto& j : r.jobs) {
      j.digest = j.ok ? service::deterministic_digest(j.result) : 0;
      const bool keep = rounds.size() < proof && kept.emplace(j.result.seed, true).second;
      if (!keep) j.result.run.report = core::ScanReport{};
    }
    rounds.push_back(std::move(r));
    if (rounds.size() == proof) {
      after_proof = obs_values();
      rss_mb = peak_rss_mb();
    }
  };
  const std::uint64_t window_start = now_ns();
  while (rounds.size() < proof) run_round(false);
  const double spread_s = std::max(0.0, opt.seconds - seconds_since(window_start));
  const std::uint64_t spread_start = now_ns();
  const double spread_setups = static_cast<double>(kSetups - kSetupsBefore);
  std::size_t traced_rounds = 0;
  while (seconds_since(window_start) < opt.seconds || (opt.trace && traced_rounds == 0)) {
    const bool traced = opt.trace && (rounds.size() - proof) % 2 == 1;
    run_round(traced);
    traced_rounds += traced ? 1 : 0;
    while (setup_s.size() < kSetups &&
           static_cast<double>(setup_s.size() - kSetupsBefore) <
               spread_setups * seconds_since(spread_start) / std::max(spread_s, 1e-9)) {
      (void)set_up();
    }
  }
  while (setup_s.size() < kSetups) (void)set_up();
  const double window_s = seconds_since(window_start);
  std::map<std::string, double> proof_delta;
  for (const auto& [name, value] : after_proof) proof_delta[name] = value - value_of(before, name);

  // --- End-to-end metrics.
  std::size_t attempted = 0, failed = 0;
  std::vector<double> untraced_rates, latencies;
  std::vector<double> interleaved_untraced, interleaved_traced;  // after the proof set
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    rec.add_round(r.wall_s, r.cpu_s, r.ok_jobs(), r.traced);
    attempted += r.jobs.size();
    failed += r.jobs.size() - static_cast<std::size_t>(r.ok_jobs());
    const double rate = r.ok_jobs() / r.wall_s;
    if (!r.traced) untraced_rates.push_back(rate);
    if (i >= proof) (r.traced ? interleaved_traced : interleaved_untraced).push_back(rate);
    if (r.traced) continue;
    for (const auto& j : r.jobs) {
      if (j.ok && j.latency_ms > 0.0) latencies.push_back(j.latency_ms);
    }
  }
  rec.set_jobs(attempted, failed);
  rec.metric(kE2E, "missions_per_s", "1/s", median(untraced_rates),
             "median over untraced rounds of successful missions / round wall");
  if (latencies.empty()) {
    rec.absent(kE2E, "latency_p50_ms", "ms", "no per-job SUBMIT->RESULT on this workload");
    rec.absent(kE2E, "latency_tail_ms", "ms", "no per-job SUBMIT->RESULT on this workload");
  } else {
    rec.metric(kE2E, "latency_p50_ms", "ms", median(latencies),
               std::to_string(latencies.size()) + " samples");
    if (const auto tail = tail_of(latencies)) {
      char note[96];
      std::snprintf(note, sizeof note, "p%g of %zu samples, %zu beyond", tail->percentile,
                    latencies.size(), tail->beyond);
      rec.metric(kE2E, "latency_tail_ms", "ms", tail->value, note);
      rec.info("latency_tail_percentile", tail->percentile);
    } else {
      rec.absent(kE2E, "latency_tail_ms", "ms", "fewer than 11 latency samples");
    }
  }
  rec.metric(kE2E, "setup_s", "s", median(setup_s),
             "median of " + std::to_string(kSetups) + " set-ups, each on its own warm-up seed");
  rec.metric(kLayer, "setup.cold_s", "s", setup_s.front(),
             "the first set-up, with the process's one-time costs");
  rec.metric(kE2E, "peak_rss_mb", "MB", rss_mb, "high-water mark over set-up and the proof set");
  rec.metric(kE2E, "failed_fraction", "fraction",
             attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0);

  // The output digest over every proof-set job; accuracy over its distinct
  // missions (a repeated (scenario, seed) pair is one mission, however often
  // it was run or served).
  const std::vector<Vec3>& truth = w->truth();
  std::vector<double> errors;
  double localized = 0.0, population = 0.0, simulated = 0.0;
  std::uint64_t digest = 0;
  std::map<std::uint64_t, bool> counted;
  for (std::size_t i = 0; i < proof; ++i) {
    for (const auto& j : rounds[i].jobs) {
      digest = mix_digest(digest, j.digest);
      if (j.ok && !j.cached) simulated += 1.0;
      if (!counted.emplace(j.result.seed, true).second) continue;
      population += static_cast<double>(truth.size());
      if (!j.ok) continue;
      const auto& items = j.result.run.report.items;
      for (std::size_t t = 0; t < items.size() && t < truth.size(); ++t) {
        if (!items[t].localized) continue;
        localized += 1.0;
        errors.push_back(std::hypot(items[t].estimate.x - truth[t].x,
                                    items[t].estimate.y - truth[t].y));
      }
    }
  }
  rec.set_digest(digest);
  rec.metric(kE2E, "localized_fraction", "fraction", ratio_or_nan(localized, population),
             std::to_string(counted.size()) + " distinct missions, proof set");
  if (errors.empty()) {
    rec.absent(kE2E, "loc_error_p50_m", "m", "nothing localized");
    rec.absent(kE2E, "loc_error_p90_m", "m", "nothing localized");
  } else {
    rec.metric(kE2E, "loc_error_p50_m", "m", quantile(errors, 0.5),
               std::to_string(errors.size()) + " localized items of distinct missions, proof set");
    rec.metric(kE2E, "loc_error_p90_m", "m", quantile(errors, 0.9),
               std::to_string(errors.size()) + " localized items of distinct missions, proof set");
  }

  // --- Per-layer: stage costs per simulated mission (cache hits carry the
  // original run's trace, so they are left out).
  std::vector<double> stage_s(sim::kStageCount, 0.0), stage_calls(sim::kStageCount, 0.0);
  double stage_missions = 0.0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    for (const auto& j : rounds[i].jobs) {
      if (!j.ok || j.cached) continue;
      stage_missions += 1.0;
      for (const auto& st : j.result.run.trace) {
        stage_s[static_cast<std::size_t>(st.stage)] += st.seconds;
        stage_calls[static_cast<std::size_t>(st.stage)] += static_cast<double>(st.invocations);
      }
    }
  }
  for (std::size_t s = 0; s < sim::kStageCount; ++s) {
    const std::string name = std::string("stage.") + sim::stage_name(static_cast<sim::Stage>(s));
    if (stage_missions > 0.0) {
      rec.metric(kLayer, name + "_s", "s", stage_s[s] / stage_missions, "per simulated mission");
      rec.metric(kLayer, name + "_calls", "count", stage_calls[s] / stage_missions,
                 "per simulated mission");
    }
  }

  // Exact work counts over the proof set (obs counter deltas).
  for (const char* name : {"gen2.slots", "gen2.collisions", "gen2.rounds", "gen2.epcs_read",
                           "sar.cells", "measure.plane.channel_evals", "measure.plane.builds",
                           "geometry_cache.hits", "geometry_cache.misses",
                           "forward_plane_cache.hits", "forward_plane_cache.misses"}) {
    rec.work(name, static_cast<std::uint64_t>(value_of(proof_delta, name)));
  }
  for (const char* name : {"gen2.slots", "gen2.collisions", "gen2.rounds", "gen2.epcs_read",
                           "sar.cells", "pool.jobs", "pool.chunks", "pool.serial_jobs"}) {
    rec.metric(kLayer, name, "count", value_of(proof_delta, name), "proof set");
  }
  rec.info("proof_simulated_missions", simulated);
  rec.metric(kLayer, "inventory.slots_per_tag", "count",
             value_of(proof_delta, "gen2.slots") /
                 std::max(1.0, simulated * static_cast<double>(truth.size())),
             "per tag per simulated mission");
  rec.metric(kLayer, "measure.channel_evals", "count",
             value_of(proof_delta, "measure.plane.channel_evals"), "proof set");
  rec.metric(kLayer, "measure.plane_builds", "count",
             value_of(proof_delta, "measure.plane.builds"), "proof set");
  {
    const double h = value_of(proof_delta, "forward_plane_cache.hits");
    const double m = value_of(proof_delta, "forward_plane_cache.misses");
    ratio_metric(rec, "measure.plane_cache_hit_ratio", h, h + m, "no plane-cache lookup");
  }
  w->layer_metrics(rounds, proof, proof_delta, rec);

  // --- Correctness checks, then (traced runs) the layer probes.
  w->check(rounds, proof, rec);
  rec.check("no_failed_jobs", failed == 0,
            std::to_string(failed) + " of " + std::to_string(attempted) + " jobs failed");
  if (opt.trace) {
    (void)obs::drain_trace();
    g_tracing.store(true, std::memory_order_relaxed);
    w->probe(rounds, proof, rec);
    g_tracing.store(false, std::memory_order_relaxed);
    keep_bench_spans(obs::drain_trace(), spans);
    rec.set_spans(span_totals(spans));
    rec.info("spans_dropped", static_cast<double>(spans.dropped));
    std::string error;
    if (!opt.trace_path.empty() && !obs::write_trace_file(opt.trace_path, spans, &error)) {
      rec.check("trace_written", false, error);
    }
    if (!interleaved_traced.empty() && !interleaved_untraced.empty()) {
      rec.metric(kLayer, "trace.overhead_frac", "fraction",
                 median(interleaved_untraced) / median(interleaved_traced) - 1.0,
                 "untraced / traced missions_per_s - 1, over alternating rounds after the "
                 "proof set");
    }
  }

  for (const auto& spec : metric_specs()) {
    if (!rec.has(spec.name)) {
      rec.absent(spec.kind, spec.name, spec.unit,
                 spec.kind == kLayer && !opt.trace ? "traced run only"
                                                   : "does not apply to " + opt.workload);
    }
  }
  rec.info("window_s", window_s);
  rec.info("rounds", static_cast<double>(rounds.size()));
  rec.info("proof_rounds", static_cast<double>(proof));
  for (std::size_t k = 0; k < setup_s.size(); ++k) {
    rec.info("setup_s_" + std::to_string(k), setup_s[k]);
  }
  w.reset();

  const std::string json = rec.to_json();
  if (!opt.record_path.empty()) {
    if (std::FILE* f = std::fopen(opt.record_path.c_str(), "w")) {
      std::fputs(json.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }
  std::printf("%s\n", json.c_str());
  return rec.all_checks_ok() ? 0 : 1;
}

}  // namespace
}  // namespace rfly::perfbench

int main(int argc, char** argv) {
  rfly::perfbench::Options opt;
  if (!rfly::perfbench::parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload <warehouse_sweep|warehouse_repeat|fleet_1000|"
                 "service_mixed> --seed <n> --seconds <s> --trace <0|1> "
                 "[--record <path>] [--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  try {
    return rfly::perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mission_bench: %s\n", e.what());
    return 1;
  }
}
