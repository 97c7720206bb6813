// `rflyd` — the long-lived mission service. Promotes the one-shot
// scenario_runner flow into a persistent daemon: clients SUBMIT missions
// (canonical scenario text + seed) over the versioned wire protocol
// (wire.h), jobs run on an async bounded queue layered over the shared
// deterministic thread pool via run_batch, and repeated submissions are
// served from a content-addressed result cache without re-simulating.
//
// Contracts (pinned by tests/test_service.cpp):
//   - Determinism: a result served over the socket is bit-identical (all
//     deterministic fields; wall-clock timings excluded) to a direct
//     run_batch of the same (scenario, seed) at any thread count.
//   - Backpressure: a SUBMIT that finds the queue full is *rejected* with
//     ERROR kUnavailable + a retry-after hint; the daemon never blocks the
//     connection on queue space. Cache hits bypass the queue entirely.
//   - Graceful drain: SHUTDOWN (or request_shutdown) stops intake, queued
//     and running jobs finish (drain=true) or queued jobs cancel
//     (drain=false), waiters wake, then sockets close.
//   - Observability: queue depth / jobs in flight gauges, submit/reject/
//     complete/cache counters, job + queue-wait histograms under
//     `service.*`.
//   - Retention: the job table keeps at most kFinishedJobRetention finished
//     (done or cancelled) jobs; beyond that the oldest finished job is
//     evicted, and STATUS/RESULT for its id answer kNotFound saying so.
//     Queued and running jobs are never evicted.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/content_cache.h"
#include "service/wire.h"
#include "sim/batch.h"

namespace rfly::service {

struct ServiceConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back with
  /// port() after start()).
  std::uint16_t port = 0;
  /// Executor threads pulling jobs off the queue. Each runs one mission at
  /// a time through run_batch; results are per-job deterministic, so the
  /// worker count (like every thread knob in this repo) never changes
  /// bytes, only latency.
  unsigned workers = 1;
  /// BatchConfig::threads for each job's run_batch call (0 = hardware).
  unsigned job_threads = 0;
  /// Jobs allowed to wait in the queue; a SUBMIT beyond this is rejected
  /// with kUnavailable (backpressure), never blocked.
  std::size_t queue_capacity = 64;
  /// Result cache retention (distinct (scenario, seed) results); 0 disables
  /// result caching so every submission simulates.
  std::size_t cache_capacity = 256;
  /// Retry hint attached to backpressure rejections.
  std::uint32_t retry_after_ms = 50;
};

class MissionService {
 public:
  explicit MissionService(ServiceConfig config = {});
  ~MissionService();

  MissionService(const MissionService&) = delete;
  MissionService& operator=(const MissionService&) = delete;

  /// Bind 127.0.0.1, listen, spawn the acceptor and executor threads.
  /// kIoError with the errno cause when the port cannot be bound.
  Status start();

  /// The bound port (valid after a successful start()).
  std::uint16_t port() const { return port_; }

  /// Stop intake and begin teardown. drain=true lets queued jobs finish;
  /// drain=false cancels everything still queued (running jobs always
  /// complete — missions are not interruptible mid-pipeline). Idempotent;
  /// also triggered remotely by the SHUTDOWN command.
  void request_shutdown(bool drain = true);

  /// Block until the service has fully stopped: workers drained, acceptor
  /// and connection threads joined, sockets closed. Returns immediately if
  /// never started.
  void wait();

  /// Point-in-time counters (same numbers the STATS command returns).
  ServiceStats stats() const;

  /// Finished jobs the table keeps for STATUS/RESULT. A client reads its
  /// result right after the job finishes, so this only bounds memory on a
  /// daemon that serves jobs forever.
  static constexpr std::size_t kFinishedJobRetention = 1024;

 private:
  struct Job {
    sim::Scenario scenario;
    std::string canonical_text;  // serialize(scenario) — the cache key
    std::uint64_t seed = 0;
    JobState state = JobState::kQueued;
    bool cached = false;         // served from cache_, never simulated
    std::string result_bytes;    // encoded BatchResult once kDone
    double submit_seconds = 0.0; // monotonic submit time (queue-wait probe)
  };

  void accept_loop();
  void connection_loop(int fd);
  void worker_loop();

  /// Dispatch one request frame; returns false when the connection should
  /// close (protocol violation after the error reply).
  bool handle_frame(int fd, const FrameHeader& header,
                    const std::string& payload);

  bool handle_submit(int fd, const std::string& payload);
  bool handle_status(int fd, const std::string& payload);
  bool handle_result(int fd, const std::string& payload);
  bool handle_cancel(int fd, const std::string& payload);
  bool handle_stats(int fd);
  bool handle_shutdown(int fd, const std::string& payload);

  bool send_error(int fd, StatusCode code, const std::string& message,
                  std::uint32_t retry_after_ms = 0);

  /// Record that job `id` reached a terminal state and evict the oldest
  /// finished jobs beyond kFinishedJobRetention. Requires mu_.
  void retire_locked(std::uint64_t id);
  /// kNotFound for an id the table does not hold: evicted when it was
  /// issued, unknown otherwise. Requires mu_.
  Status missing_job_locked(std::uint64_t id) const;

  ServiceStats stats_locked() const;  // requires mu_

  ServiceConfig config_;
  /// Wire-encoded BatchResults keyed by result_key(canonical text, seed).
  /// A mission outcome is a pure function of that pair (the repo-wide
  /// determinism contract), so a hit is served the first run's exact bytes,
  /// stage timings included. Obs prefix `service.cache`.
  ContentCache<std::string> cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue or drain state changed
  std::condition_variable done_cv_;   // waiters: a job reached a terminal state
  std::unordered_map<std::uint64_t, Job> jobs_;
  std::deque<std::uint64_t> queue_;
  std::deque<std::uint64_t> finished_;  // terminal job ids, oldest first
  std::uint64_t next_job_id_ = 1;
  std::size_t in_flight_ = 0;
  bool draining_ = false;  // no new submissions
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t simulated_ = 0;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::mutex wait_mu_;  // serializes wait(); join is not concurrency-safe
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex conn_mu_;
  std::vector<std::thread> connections_;
  std::vector<int> open_fds_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace rfly::service
