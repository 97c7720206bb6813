// Observability layer tests: histogram bucket placement, snapshot
// consistency under concurrent writers (meaningful under TSAN — this suite
// carries the `obs` label and builds in the sanitizer trees too), span
// nesting/ordering, and the zero-drift golden: the warehouse mission digest
// below was captured from the pre-obs seed build at full precision, and
// must match bit-for-bit whether the probes are compiled in (RFLY_OBS=ON)
// or out (OFF). A probe that perturbs a computed value fails this in both
// trees; a probe that only exists in ON builds failing only there would
// point straight at the instrumentation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "localize/sar.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pipeline.h"

namespace rfly {
namespace {

// Convenience: find a snapshot entry by name (nullptr when absent).
const obs::HistogramSnapshot* find_histogram(const obs::MetricsSnapshot& snap,
                                             const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

const obs::CounterSnapshot* find_counter(const obs::MetricsSnapshot& snap,
                                         const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

TEST(ObsMetrics, HistogramBucketEdges) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  auto& h = obs::histogram("test.edges", obs::HistogramSpec::counts());
  // counts() bounds are 1, 2, 4, ..., 65536. The rule is first bucket with
  // x <= bound: a value exactly on a bound lands in that bucket, epsilon
  // past it in the next, and anything beyond the last bound in overflow.
  h.observe(1.0);      // bucket 0 (<= 1)
  h.observe(2.0);      // bucket 1 (<= 2)
  h.observe(2.5);      // bucket 2 (<= 4)
  h.observe(65536.0);  // last bounded bucket
  h.observe(70000.0);  // overflow
  const auto snap = obs::snapshot();
  const auto* edges = find_histogram(snap, "test.edges");
  ASSERT_NE(edges, nullptr);
  ASSERT_EQ(edges->bounds.size(), 17u);
  ASSERT_EQ(edges->counts.size(), 18u);  // + overflow
  EXPECT_EQ(edges->counts[0], 1u);
  EXPECT_EQ(edges->counts[1], 1u);
  EXPECT_EQ(edges->counts[2], 1u);
  EXPECT_EQ(edges->counts[16], 1u);
  EXPECT_EQ(edges->counts[17], 1u);  // overflow bucket
  EXPECT_EQ(edges->count, 5u);
  EXPECT_DOUBLE_EQ(edges->sum, 1.0 + 2.0 + 2.5 + 65536.0 + 70000.0);
}

TEST(ObsMetrics, DurationLayoutCoversMicrosecondsToSeconds) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  const auto spec = obs::HistogramSpec::duration_seconds();
  ASSERT_FALSE(spec.bounds.empty());
  EXPECT_DOUBLE_EQ(spec.bounds.front(), 1e-6);
  EXPECT_GT(spec.bounds.back(), 10.0);
  for (std::size_t i = 1; i < spec.bounds.size(); ++i) {
    EXPECT_LT(spec.bounds[i - 1], spec.bounds[i]) << "bounds must increase";
  }
}

TEST(ObsMetrics, SnapshotUnderConcurrentIncrements) {
  auto& counter = obs::counter("test.concurrent");
  auto& hist = obs::histogram("test.concurrent_hist",
                              obs::HistogramSpec::duration_seconds());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        hist.observe(1e-5);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Snapshots race the writers on purpose: values must be readable (no
  // torn/garbage reads under TSAN) and monotone for a counter.
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const auto snap = obs::snapshot();
    if (const auto* c = find_counter(snap, "test.concurrent")) {
      EXPECT_GE(c->value, last);
      last = c->value;
    }
  }
  for (auto& w : writers) w.join();
  if (!obs::kEnabled) return;  // disabled build: nothing recorded, no race
  const auto snap = obs::snapshot();
  const auto* c = find_counter(snap, "test.concurrent");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto* h = find_histogram(snap, "test.concurrent_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // All observations hit the 1e-5 bucket (bounds 1e-6, 4e-6, 1.6e-5, ...).
  EXPECT_EQ(h->counts[2], h->count);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  auto& g = obs::gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.0);
  g.add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.5);
}

TEST(ObsTrace, SpanNestingOrder) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  (void)obs::drain_trace();  // clear spans from earlier tests
  {
    obs::Span outer("test.outer");
    {
      obs::Span first("test.first");
    }
    {
      obs::Span second("test.second");
    }
  }
  const auto trace = obs::drain_trace();
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.dropped, 0u);
  // Drained in start order: outer opened first.
  const auto& outer = trace.spans[0];
  const auto& first = trace.spans[1];
  const auto& second = trace.spans[2];
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_STREQ(first.name, "test.first");
  EXPECT_STREQ(second.name, "test.second");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(first.depth, 1u);
  EXPECT_EQ(first.parent, outer.seq);
  EXPECT_EQ(second.depth, 1u);
  EXPECT_EQ(second.parent, outer.seq);
  // Children are contained in the parent's interval.
  EXPECT_GE(first.start_ns, outer.start_ns);
  EXPECT_LE(second.end_ns, outer.end_ns);
  EXPECT_LE(first.end_ns, second.start_ns);
}

TEST(ObsTrace, CrossThreadSpansCarryThreadIds) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  (void)obs::drain_trace();
  {
    obs::Span main_span("test.main_thread");
    std::thread worker([] { obs::Span s("test.worker_thread"); });
    worker.join();
  }
  const auto trace = obs::drain_trace();
  ASSERT_EQ(trace.spans.size(), 2u);
  std::uint32_t main_tid = 0, worker_tid = 0;
  for (const auto& s : trace.spans) {
    if (std::string(s.name) == "test.main_thread") main_tid = s.thread;
    if (std::string(s.name) == "test.worker_thread") worker_tid = s.thread;
  }
  EXPECT_NE(main_tid, worker_tid);
}

std::uint64_t histogram_count(const std::string& name) {
  // find_histogram points into the snapshot, so the snapshot must outlive
  // the read.
  const obs::MetricsSnapshot snapshot = obs::snapshot();
  const auto* h = find_histogram(snapshot, name);
  return h != nullptr ? h->count : 0;
}

// The batched multi-tag sweep times its row chunks into the same per-kernel
// histograms as sar_heatmap: one observation per chunk (a serial sweep is
// one chunk), none in the other kernel's histogram.
TEST(ObsMetrics, MultiTagSweepTimesItsChunksPerKernel) {
  if (!obs::kEnabled) GTEST_SKIP() << "obs layer compiled out";
  const std::vector<channel::Vec3> positions = {{0.0, 2.0, 1.0}, {0.5, 2.0, 1.0}};
  const std::vector<double> hre = {1.0, 0.5}, him = {0.0, -0.5};
  const auto traj = localize::SharedTrajectory::from(positions);
  const auto grid = localize::SharedGrid::from({0.0, 0.3, 0.0, 0.9, 0.1});
  std::vector<double> plane(grid.xs.size() * grid.ys.size());
  const localize::MultiTagSlot slot{hre.data(), him.data(), plane.data()};
  for (const auto kernel : {localize::SarKernel::kExact, localize::SarKernel::kFast}) {
    const std::uint64_t exact0 = histogram_count("sar.row_chunk_seconds");
    const std::uint64_t fast0 = histogram_count("sar.row_chunk_seconds.fast");
    localize::sar_heatmap_multi(traj, grid, 915e6, 0.0, &slot, 1, /*threads=*/1,
                                kernel);
    const bool fast = kernel == localize::SarKernel::kFast;
    EXPECT_EQ(histogram_count("sar.row_chunk_seconds") - exact0, fast ? 0u : 1u);
    EXPECT_EQ(histogram_count("sar.row_chunk_seconds.fast") - fast0,
              fast ? 1u : 0u);
  }
}

TEST(ObsExport, JsonShapes) {
  const auto snap = obs::snapshot();
  const std::string json = obs::metrics_to_json(snap);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  const std::string trace_json = obs::trace_to_json(obs::drain_trace());
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
}

// --- Zero-drift golden ----------------------------------------------------
// Full-precision digest of the warehouse preset mission, captured from the
// seed build (before the obs layer existed). Instrumentation may add
// telemetry; it may never move a computed value by even one ulp — in the
// ON build *or* the OFF build.
//
// One deliberate regeneration: the grid_axis_cells() fix (an extent that is
// an exact multiple of the resolution no longer drops its last cell when
// the division lands ULPs below an integer) widened the "box of jackets"
// search grid by one coarse row, surfacing a peak 1.35 m from the true tag
// where the clipped grid had settled 2.38 m away. Every other line is
// unchanged from the seed capture.
TEST(ObsGolden, WarehouseDigestIsBitIdentical) {
  const char* kGolden =
      "discovered=9 localized=9 items=9 flight=192.48826570559325\n"
      "pallet of drills|1|1|40|3.9000813327574351|6.2270625884157731\n"
      "box of jackets|1|1|48|4.6594267159575278|16.191853434050152\n"
      "solvent drums|1|1|45|5.1097367355862007|24.573946583541293\n"
      "printer cartridges|1|1|47|14.78177602886212|5.3313499419396493\n"
      "bike frames|1|1|52|14.06538140946769|15.756119336372427\n"
      "copper spools|1|1|45|13.531702480927795|24.198543965143102\n"
      "server chassis|1|1|42|22.782980624641759|4.7651450555198247\n"
      "ceramic tiles|1|1|51|21.515141448842105|14.613592109556569\n"
      "seed bags|1|1|47|21.747044112194878|24.014539699097313\n";

  const auto scenario = sim::preset("warehouse");
  ASSERT_TRUE(scenario.ok());
  const auto run = sim::run_scenario(*scenario);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const auto& r = run->report;

  std::string digest;
  char line[256];
  std::snprintf(line, sizeof line,
                "discovered=%zu localized=%zu items=%zu flight=%.17g\n",
                r.discovered, r.localized, r.items.size(), r.flight_length_m);
  digest += line;
  for (const auto& item : r.items) {
    std::snprintf(line, sizeof line, "%s|%d|%d|%zu|%.17g|%.17g\n",
                  item.description.c_str(), item.discovered ? 1 : 0,
                  item.localized ? 1 : 0, item.measurements, item.estimate.x,
                  item.estimate.y);
    digest += line;
  }
  EXPECT_EQ(digest, kGolden);
}

// The pipeline's stage trace must keep its deterministic columns in both
// modes: invocation counts are plain increments (never gated on the obs
// clock), and in an OFF build the seconds read exactly zero.
TEST(ObsGolden, StageTraceInvocationsAreModeIndependent) {
  const auto scenario = sim::preset("warehouse");
  ASSERT_TRUE(scenario.ok());
  const auto run = sim::run_scenario(*scenario);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->trace.size(), sim::kStageCount);
  EXPECT_EQ(run->trace[static_cast<std::size_t>(sim::Stage::kPlan)].invocations, 1u);
  EXPECT_EQ(run->trace[static_cast<std::size_t>(sim::Stage::kFly)].invocations, 1u);
  EXPECT_EQ(run->trace[static_cast<std::size_t>(sim::Stage::kInventory)].invocations,
            9u);  // one Gen2 round per warehouse tag
  EXPECT_EQ(run->trace[static_cast<std::size_t>(sim::Stage::kReport)].invocations, 9u);
  for (const auto& stage : run->trace) {
    if (!obs::kEnabled) {
      EXPECT_EQ(stage.seconds, 0.0) << "OFF build must not clock stages";
    } else {
      EXPECT_GE(stage.seconds, 0.0);
    }
  }
  EXPECT_GT(run->total_seconds, 0.0) << "wall clock is chrono-based in both modes";
}

}  // namespace
}  // namespace rfly
