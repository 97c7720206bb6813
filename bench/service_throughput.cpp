// Mission-service throughput: what the daemon costs over direct run_batch,
// and what the content-addressed result cache buys. Three phases over the
// same job list (warehouse preset, distinct seeds):
//
//   direct       run_batch in-process — the ceiling.
//   socket cold  every job submitted over the loopback wire protocol to an
//                in-process rflyd, result fetched back; empty cache, so
//                every job simulates (protocol + queue + codec overhead).
//   socket warm  the identical submissions again — all served from the
//                result cache, zero simulations (pure service overhead).
//
// Emits BENCH_service.json. `--trials` is the job count, `--threads` the
// per-job run_batch thread count, `--out` an optional metrics copy.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "service/client.h"
#include "service/server.h"
#include "sim/batch.h"

using namespace rfly;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Phase {
  double seconds = 0.0;
  double jobs_per_second = 0.0;
  std::size_t cached = 0;
};

std::string phase_json(const Phase& phase) {
  return "{\"seconds\": " + json_number(phase.seconds) +
         ", \"jobs_per_second\": " + json_number(phase.jobs_per_second) +
         ", \"cache_served\": " + std::to_string(phase.cached) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  bench::CliOptions opts;
  opts.trials = 24;
  if (!opts.parse(argc, argv)) return 2;
  const std::size_t jobs_n =
      opts.trials > 0 ? static_cast<std::size_t>(opts.trials) : 24;

  bench::header("BENCH service", "daemon overhead & result-cache throughput");

  const auto scenario = *sim::preset("warehouse");
  std::vector<sim::BatchJob> jobs;
  jobs.reserve(jobs_n);
  for (std::size_t i = 0; i < jobs_n; ++i) {
    jobs.push_back({scenario, stream_seed(opts.seed, i)});
  }

  // Phase 1: the in-process ceiling over the identical job list.
  Phase direct;
  {
    const auto start = Clock::now();
    const auto results = sim::run_batch(jobs, {opts.threads});
    direct.seconds = seconds_since(start);
    for (const auto& result : results) {
      if (!result.status.is_ok()) {
        std::fprintf(stderr, "direct job failed: %s\n",
                     result.status.to_string().c_str());
        return 1;
      }
    }
  }
  direct.jobs_per_second = static_cast<double>(jobs_n) / direct.seconds;

  // One in-process daemon for both socket phases: one executor (the jobs
  // themselves parallelize via job_threads), queue sized so nothing is
  // rejected — this bench measures throughput, not backpressure.
  service::ServiceConfig config;
  config.workers = 1;
  config.job_threads = opts.threads;
  config.queue_capacity = jobs_n + 8;
  config.cache_capacity = jobs_n + 8;
  service::MissionService daemon(config);
  if (Status status = daemon.start(); !status.is_ok()) {
    std::fprintf(stderr, "%s\n", status.to_string().c_str());
    return 1;
  }
  auto connected = service::Client::connect(daemon.port());
  if (!connected) {
    std::fprintf(stderr, "%s\n", connected.status().to_string().c_str());
    return 1;
  }
  service::Client client = std::move(connected.value());

  auto socket_phase = [&](Phase& phase) -> bool {
    std::vector<std::uint64_t> ids;
    ids.reserve(jobs_n);
    const auto start = Clock::now();
    for (const auto& job : jobs) {
      auto ack = client.submit(sim::serialize(job.scenario), job.seed);
      if (!ack) {
        std::fprintf(stderr, "submit: %s\n", ack.status().to_string().c_str());
        return false;
      }
      if (ack->cached) ++phase.cached;
      ids.push_back(ack->job_id);
    }
    for (std::uint64_t id : ids) {
      auto result = client.result(id, /*wait=*/true);
      if (!result) {
        std::fprintf(stderr, "result: %s\n",
                     result.status().to_string().c_str());
        return false;
      }
      if (!result->status.is_ok()) {
        std::fprintf(stderr, "socket job failed: %s\n",
                     result->status.to_string().c_str());
        return false;
      }
    }
    phase.seconds = seconds_since(start);
    phase.jobs_per_second = static_cast<double>(jobs_n) / phase.seconds;
    return true;
  };

  Phase cold;
  if (!socket_phase(cold)) return 1;
  Phase warm;
  if (!socket_phase(warm)) return 1;

  const service::ServiceStats stats = daemon.stats();
  client.shutdown(/*drain=*/true);
  daemon.wait();

  std::printf("\n  %-14s %10s %14s %14s\n", "phase", "seconds", "jobs/s",
              "cache-served");
  std::printf("  %-14s %10.3f %14.1f %14s\n", "direct", direct.seconds,
              direct.jobs_per_second, "-");
  std::printf("  %-14s %10.3f %14.1f %11zu/%zu\n", "socket cold", cold.seconds,
              cold.jobs_per_second, cold.cached, jobs_n);
  std::printf("  %-14s %10.3f %14.1f %11zu/%zu\n", "socket warm", warm.seconds,
              warm.jobs_per_second, warm.cached, jobs_n);
  std::printf("\n  socket cold vs direct: %.2fx slower; warm vs cold: %.1fx "
              "faster; %llu simulation(s) for %zu submissions\n",
              direct.jobs_per_second / cold.jobs_per_second,
              warm.jobs_per_second / cold.jobs_per_second,
              static_cast<unsigned long long>(stats.simulated), 2 * jobs_n);
  bench::paper_vs_ours("service warm-cache speedup vs cold", "(n/a: ours)",
                       warm.jobs_per_second / cold.jobs_per_second, "x");

  if (warm.cached != jobs_n || stats.simulated != jobs_n) {
    std::fprintf(stderr,
                 "cache contract violated: %zu/%zu warm submissions cached, "
                 "%llu simulations for %zu distinct jobs\n",
                 warm.cached, jobs_n,
                 static_cast<unsigned long long>(stats.simulated), jobs_n);
    return 1;
  }

  FILE* json = std::fopen("BENCH_service.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n  \"bench\": \"service_throughput\",\n"
        "  \"scenario\": %s,\n  \"jobs\": %zu,\n  \"job_threads\": %u,\n"
        "  \"direct\": %s,\n  \"socket_cold\": %s,\n"
        "  \"socket_warm\": %s,\n"
        "  \"stats\": {\"submitted\": %llu, \"simulated\": %llu, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu, \"rejected\": %llu}\n"
        "}\n",
        json_quote(scenario.name).c_str(), jobs_n, opts.threads,
        phase_json(direct).c_str(), phase_json(cold).c_str(),
        phase_json(warm).c_str(),
        static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.simulated),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_misses),
        static_cast<unsigned long long>(stats.rejected));
    std::fclose(json);
    std::printf("wrote BENCH_service.json\n");
  }

  bench::Metrics metrics;
  metrics.add("jobs", static_cast<double>(jobs_n));
  metrics.add("direct_jobs_per_second", direct.jobs_per_second);
  metrics.add("socket_cold_jobs_per_second", cold.jobs_per_second);
  metrics.add("socket_warm_jobs_per_second", warm.jobs_per_second);
  if (!bench::finish_observability(opts, metrics)) return 1;
  return metrics.write(opts.out) ? 0 : 1;
}
