#pragma once
// QueryService — the concurrent serving wrapper around FamilyIndex
// (DESIGN.md §10): a bounded worker pool consuming a bounded admission
// queue, with explicit backpressure instead of unbounded latency growth.
// When the queue is full, admission follows the fault layer's policy
// vocabulary (fault::ResiliencePolicy):
//
//   Off       reject immediately with QueueFull — the caller sees the
//             overload and can shed load upstream;
//   Retry /   bounded deterministic retries: wait retry_backoff_seconds *
//   Fallback  2^(attempt-1) (host-measured sleep, capped by max_retries)
//             for a slot to open, then reject with QueueFull.
//
// Every admitted query completes (destruction drains the queue), every
// result is bit-identical across worker-pool sizes (classification is a
// pure function of query x store), and the whole path is host-only — no
// device allocations, so the arena-empty invariant holds trivially.
//
// Hot reload (DESIGN.md §15): reload() / reload_with_delta() swap in a
// new store without pausing or draining the pool. The (store, index,
// bucket table) triple is an immutable Generation behind a shared_ptr;
// workers copy the pointer at dequeue, so queries already being
// classified finish against the generation they started with, queries
// dequeued after the swap see the new one, and an old generation is
// freed when its last in-flight query completes.
//
// Observability: per-query host-measured spans ("serve.wait" — admission
// to dequeue; "serve.classify" — dequeue to completion), the
// "serve.latency" log2 histogram (submit to completion), and serve.*
// counters, all on the optional Tracer.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/resilience.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "serve/bucket_index.hpp"
#include "serve/family_index.hpp"

namespace gpclust::store {
struct SnapshotDelta;
}

namespace gpclust::serve {

struct ServiceConfig {
  std::size_t num_workers = 1;
  std::size_t queue_capacity = 64;

  /// Candidate generator feeding the exact Smith-Waterman stage: the
  /// store's postings scan at bucket.num_bands == 0 (the default), else
  /// one banded BucketIndex built per generation and probed instead.
  BucketIndexParams bucket;

  /// Admission behavior when the queue is full (see file comment). Only
  /// `mode`, `max_retries` and `retry_backoff_seconds` apply here; the
  /// device-specific knobs are ignored.
  fault::ResiliencePolicy admission;

  /// When > 0: queries that waited longer than this in the queue are
  /// rejected with Expired at dequeue time instead of being classified —
  /// the per-query timeout of an overloaded service (stale answers are
  /// worthless to a caller that already gave up).
  double queue_timeout_seconds = 0.0;

  /// Workers do not dequeue until resume() is called. Lets tests and the
  /// overload bench fill the queue deterministically.
  bool start_paused = false;

  /// Capacity of each worker's LRU over representative profiles.
  std::size_t profile_cache_capacity = 64;

  ClassifyParams classify;

  obs::Tracer* tracer = nullptr;

  void validate() const {
    GPCLUST_CHECK(num_workers >= 1, "need at least one worker");
    GPCLUST_CHECK(queue_capacity >= 1, "need queue capacity >= 1");
    classify.validate();
  }
};

/// Why a query was rejected instead of classified.
enum class RejectReason {
  None,       ///< not rejected — `result` is valid
  QueueFull,  ///< admission queue full (after any policy retries)
  Expired,    ///< exceeded queue_timeout_seconds before a worker got to it
};
std::string_view reject_reason_name(RejectReason reason);

struct QueryOutcome {
  RejectReason rejected = RejectReason::None;
  ClassifyResult result;  ///< valid iff rejected == None
  /// Host-measured submit-to-completion seconds (0 for admission rejects).
  double latency_seconds = 0.0;
};

struct ServiceStats {
  u64 submitted = 0;
  u64 accepted = 0;
  u64 completed = 0;
  u64 rejected_queue_full = 0;
  u64 rejected_expired = 0;
  u64 admission_retries = 0;  ///< backoff waits taken by Retry admission
  u64 profile_builds = 0;     ///< LRU misses across workers
  u64 profile_hits = 0;       ///< LRU hits across workers
};

class QueryService {
 public:
  /// The store must outlive the service — or its last reload()
  /// superseding it, whichever comes first (reloaded stores are owned by
  /// the service).
  QueryService(const store::FamilyStore& store, ServiceConfig config = {});

  /// Drains the queue (every admitted query completes), then joins the
  /// workers. Implies resume().
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one query. The future resolves with either a ClassifyResult
  /// or a RejectReason; admission rejects resolve immediately.
  std::future<QueryOutcome> submit(std::string query);

  /// Submits all queries in order and waits for every outcome; outcome i
  /// belongs to queries[i]. Rejected entries are counted, not retried.
  std::vector<QueryOutcome> classify_batch(
      const std::vector<std::string>& queries);

  /// Releases start_paused workers. Idempotent.
  void resume();

  /// Swaps in a new store without pausing or draining the pool (see file
  /// comment). The index — and the bucket table, when configured — is
  /// built before the swap, off the worker path; the service owns the
  /// reloaded store. Queries queued before the swap but dequeued after it
  /// classify against the new store.
  void reload(store::FamilyStore store);

  /// reload() with the result of applying `delta` to the currently served
  /// store. Chain mismatches and corrupt deltas raise the typed snapshot
  /// errors with the old generation still serving — a failed reload never
  /// degrades the service.
  void reload_with_delta(const store::SnapshotDelta& delta);

  /// Which store new queries classify against: 0 at construction,
  /// incremented by every successful reload.
  u64 generation() const;

  ServiceStats stats() const;

  /// Merged submit-to-completion latency histogram across workers.
  obs::Histogram latency_histogram() const;

  const ServiceConfig& config() const { return config_; }

 private:
  struct Job {
    std::string query;
    std::promise<QueryOutcome> promise;
    std::chrono::steady_clock::time_point submitted_at;
  };

  /// One immutable (store, index, bucket table) unit the workers serve
  /// from. reload() constructs the next generation off to the side and
  /// swaps the `current_` pointer under mu_; a worker copies the pointer
  /// at dequeue, which keeps the generation alive for exactly as long as
  /// some query still classifies against it.
  struct Generation {
    Generation(std::shared_ptr<const store::FamilyStore> store_in, u64 id_in,
               const ServiceConfig& config)
        : store(std::move(store_in)), index(*store), id(id_in) {
      if (config.bucket.num_bands > 0) {
        buckets = std::make_unique<const BucketIndex>(*store, config.bucket);
      }
    }
    /// Never null; an aliasing (non-owning) pointer for the
    /// construction-time store, owning for every reloaded one.
    std::shared_ptr<const store::FamilyStore> store;
    FamilyIndex index;
    std::unique_ptr<const BucketIndex> buckets;
    u64 id;
  };

  /// One worker's thread plus everything it owns. The scratch (profile
  /// LRU) and histogram are worker-local so the classify hot path takes
  /// no shared lock; `mu` only guards them against concurrent stats reads.
  struct Worker {
    explicit Worker(std::size_t profile_cache_capacity)
        : scratch(profile_cache_capacity) {}
    std::thread thread;
    ClassifyScratch scratch;
    obs::Histogram latency;
    u64 completed = 0;
    u64 expired = 0;
    /// Generation the scratch was last used against. Cached profiles are
    /// keyed by representative index, which is only meaningful within one
    /// store, so the scratch is rebuilt the first time this worker serves
    /// a newer generation; the retired_* counters keep stats() monotone
    /// across the reset. Only the worker thread touches generation_seen.
    u64 generation_seen = 0;
    u64 retired_profile_builds = 0;
    u64 retired_profile_hits = 0;
    mutable std::mutex mu;
  };

  void worker_loop(Worker& worker);
  void finish(Worker& worker, Job job, const Generation& generation);

  ServiceConfig config_;

  mutable std::mutex mu_;
  /// Guarded by mu_; workers copy it at dequeue, reload() swaps it.
  std::shared_ptr<const Generation> current_;
  u64 next_generation_ = 1;
  std::condition_variable queue_nonempty_;
  std::condition_variable queue_has_space_;
  std::deque<Job> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  u64 submitted_ = 0;
  u64 accepted_ = 0;
  u64 rejected_queue_full_ = 0;
  u64 admission_retries_ = 0;

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace gpclust::serve
