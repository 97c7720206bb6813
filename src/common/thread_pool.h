// Shared worker pool for the compute hot paths (SAR grid projection and
// friends). Design goals, in order:
//
//  1. **Determinism.** `parallel_for` splits [begin, end) into contiguous
//     chunks of `grain` indices; chunk boundaries depend only on
//     (begin, end, grain), never on the thread count or scheduling. A body
//     that computes each index independently and writes disjoint outputs
//     therefore produces bit-identical results at any thread count —
//     including 1, which runs the whole range inline on the calling thread
//     (the exact legacy serial path). There is no work stealing and no
//     cross-chunk reduction inside the pool.
//  2. **Reuse.** Workers are spawned once and parked on a condition
//     variable; a heatmap sweep submits thousands of small jobs without
//     thread churn.
//  3. **Exception safety.** The first exception thrown by any chunk is
//     captured and rethrown on the calling thread after the job drains.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rfly {

class ThreadPool {
 public:
  /// `threads` counts the calling thread too: a pool of n spawns n-1
  /// workers. 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads a job may occupy (workers + the caller).
  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run `body(chunk_begin, chunk_end)` over [begin, end) in contiguous
  /// chunks of `grain` (the last chunk may be short). Blocks until every
  /// chunk has run. The caller participates, so a pool is never idle while
  /// a job is pending. `max_threads` caps the threads used for this call
  /// (0 = all; 1 = run body(begin, end) inline — the legacy serial path).
  /// Rethrows the first exception any chunk threw.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    unsigned max_threads = 0);

  /// Process-wide pool sized to the hardware, created on first use. All
  /// library hot paths share it so concurrent callers multiplex one set of
  /// OS threads instead of oversubscribing.
  static ThreadPool& shared();

 private:
  struct Job {
    std::size_t end = 0;
    std::size_t grain = 1;
    std::atomic<std::size_t> next{0};
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::mutex error_mu;
    std::exception_ptr error;
    int active = 0;  // workers inside run_chunks (guarded by pool mu_)
  };

  void worker_loop();
  static void run_chunks(Job& job);

  std::vector<std::thread> workers_;
  std::mutex submit_mu_;  // one job in flight at a time; callers queue here
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait here for a job
  std::condition_variable done_cv_;   // caller waits here for helpers
  Job* job_ = nullptr;                // current job (guarded by mu_)
  unsigned open_slots_ = 0;           // workers still allowed to join job_
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::shared(). `threads` semantics match
/// parallel_for's max_threads; threads == 1 never touches the pool at all.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  unsigned threads = 0);

/// Canonical interpretation of a user-facing thread-count knob: 0 means
/// "use the hardware", anything else is clamped to
/// [1, hardware_concurrency]. Chunk boundaries never depend on the thread
/// count (see above), so clamping an oversized request changes scheduling
/// only — results stay bit-identical. Every config knob
/// (LocalizerConfig::threads, ScanMissionConfig::localize_threads,
/// BatchConfig::threads) funnels through here at its point of use.
inline unsigned clamp_thread_count(unsigned requested) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (requested == 0) return hw;
  return std::min(requested, hw);
}

/// Inner-loop operations (for SAR: cells x measurements) below which a job
/// runs inline on the caller. A fork-join wakes a parked worker and ends on
/// a barrier that waits for the slowest participant; for a job this small
/// (about 0.4 ms of SIMD SAR) that costs as much as the second thread
/// saves, and a worker whose vCPU is descheduled stalls the caller for the
/// whole gap, so small jobs only add run-to-run jitter.
inline constexpr std::size_t kMinParallelWork = std::size_t{1} << 17;

/// `threads` for a job of `work` inner-loop operations: 1 below
/// kMinParallelWork, `threads` unchanged otherwise. Chunking never depends
/// on the thread count, so this changes scheduling only.
inline unsigned threads_for_work(unsigned threads, std::size_t work) {
  return work < kMinParallelWork ? 1u : threads;
}

}  // namespace rfly
