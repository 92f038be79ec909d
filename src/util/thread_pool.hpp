// Reusable fixed-size worker pool.
//
// One pool owns `size() - 1` parked threads; `run(count, job)` executes
// job(0) .. job(count-1) concurrently — slot 0 on the calling thread, the
// rest one-per-worker — and blocks until every slot returns.  Slots are
// genuinely concurrent (not queued), so jobs may synchronize with each
// other.  The pool is reusable across run() calls without respawning
// threads.
//
// Exactly one thread may call run() at a time; the first exception thrown by
// any slot is rethrown on the calling thread after all slots finish.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace nas::util {

class ThreadPool {
 public:
  /// A pool with `threads` slots; 0 resolves to hardware_concurrency()
  /// (at least 1).  Spawns `threads - 1` worker threads.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total slots (worker threads + the caller of run()).
  [[nodiscard]] unsigned size() const { return threads_; }

  /// The one thread-count policy shared by every sharded consumer (stretch
  /// verifier, APSP, oracle batches, cluster shards): 0 requests hardware
  /// concurrency, and the result is clamped to [1, max(items, 1)] — no
  /// point in more workers than work items.
  [[nodiscard]] static unsigned resolve(unsigned requested, std::size_t items);

  /// Runs job(i) for i in [0, count) concurrently and returns when all are
  /// done.  Requires count <= size().  Rethrows the first slot exception.
  void run(unsigned count, const std::function<void(unsigned)>& job);

  /// One-shot sharded dispatch, the pattern every sharded consumer shares:
  /// resolves `threads` against `total` items (see resolve), splits
  /// [0, total) into that many contiguous blocks (see shard), and runs
  /// fn(begin, end) for each block on a transient pool — on the calling
  /// thread alone when one shard suffices.  Blocks until every shard
  /// returns; rethrows the first shard exception.
  static void run_sharded(std::size_t total, unsigned threads,
                          const std::function<void(std::size_t, std::size_t)>& fn);

  /// Contiguous shard `index` of [0, total) split into `shards` near-equal
  /// blocks: returns [begin, end).  Deterministic; shards cover the range
  /// exactly, in order, and may be empty when total < shards.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> shard(
      std::size_t total, unsigned shards, unsigned index) {
    const auto t = static_cast<std::uint64_t>(total);
    return {static_cast<std::size_t>(t * index / shards),
            static_cast<std::size_t>(t * (index + 1) / shards)};
  }

 private:
  void worker_main(unsigned slot);
  void run_slot(unsigned slot) noexcept;

  unsigned threads_;
  std::vector<std::thread> workers_;

  // Dispatch state, guarded by m_: a run() bumps generation_ and publishes
  // the job; workers execute their slot and count themselves done.
  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  unsigned active_count_ = 0;  // slots participating in the current run
  unsigned done_ = 0;          // workers finished with the current run
  const std::function<void(unsigned)>* job_ = nullptr;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace nas::util
