#include "net/batch_bridge.hpp"

#include <exception>
#include <utility>

#include "net/posix_io.hpp"

namespace nas::net {

BatchBridge::BatchBridge(serve::ShardedCluster& cluster, unsigned serve_threads,
                         std::size_t queue_depth, int wakeup_write_fd)
    : cluster_(cluster),
      serve_threads_(serve_threads),
      queue_depth_(queue_depth == 0 ? 1 : queue_depth),
      wakeup_write_fd_(wakeup_write_fd),
      worker_([this] { worker_main(); }) {}

BatchBridge::~BatchBridge() { shutdown(); }

bool BatchBridge::try_submit(BatchJob&& job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (jobs_.size() >= queue_depth_) return false;
    jobs_.push_back(std::move(job));
  }
  ++in_flight_;
  work_ready_.notify_one();
  return true;
}

std::vector<BatchResult> BatchBridge::drain_completions() {
  std::vector<BatchResult> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    while (!results_.empty()) {
      out.push_back(std::move(results_.front()));
      results_.pop_front();
    }
  }
  in_flight_ -= out.size();
  return out;
}

void BatchBridge::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_one();
  if (worker_.joinable()) worker_.join();
}

void BatchBridge::worker_main() {
  for (;;) {
    BatchJob job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      // Drain-then-stop: queued jobs are answered even during shutdown, so
      // a graceful SIGTERM never drops an accepted request.
      if (jobs_.empty()) break;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    BatchResult result;
    result.kind = job.kind;
    result.connection_id = job.connection_id;
    result.queries = std::move(job.queries);
    switch (job.kind) {
      case BatchJob::Kind::kBatch:
        try {
          result.answers =
              cluster_.serve(result.queries, serve_threads_, &result.stats);
          lifetime_ += result.stats;
        } catch (const std::exception& e) {
          result.answers.clear();
          result.error = e.what();
        }
        break;
      // Snapshots run here — between serves, on the thread that owns the
      // cluster's counters — never on the loop thread, where they would
      // race an in-flight serve().
      case BatchJob::Kind::kStats:
        result.snapshot = serve::cluster_stats_fields(cluster_, lifetime_);
        break;
      case BatchJob::Kind::kMetrics:
        result.snapshot = serve::cluster_metrics_fields(cluster_);
        break;
    }

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      results_.push_back(std::move(result));
    }
    signal_wakeup(wakeup_write_fd_);
  }
  // One parting wakeup so a loop blocked in wait() notices the worker is
  // done during shutdown even if no completion was pending.
  signal_wakeup(wakeup_write_fd_);
}

}  // namespace nas::net
