#pragma once
// Sharded fault-tolerant serving tier (DESIGN.md §12): the family index's
// representatives are partitioned deterministically across the ranks of a
// dist::World, each shard replicated on `replication` consecutive ranks,
// and a front-end router rank scatter-gathers every classification over
// per-rank bounded request windows (the PR-5 backpressure discipline,
// ported from QueryService's admission queue to credit-based flow
// control). Per-shard candidate scoring is the score_candidates() half of
// FamilyIndex; the router merges the shard answers — concatenate, re-sort
// by (shared k-mers desc, rep asc), re-truncate to max_candidates — and
// feeds decide(), which is order-independent, so for ANY {num_ranks,
// replication, worker count, fault plan leaving >= 1 live replica per
// shard} the results are bit-identical to single-node classification.
//
// Fail-over: a dying shard rank (static `rank_down@R` in the fault plan,
// the deterministic kill_rank/kill_after_requests seam, or an
// unrecoverable injected comm fault under an enabled ResiliencePolicy)
// sends a typed death notice on its response channel and exits cleanly.
// Channels are FIFO, so the notice arrives after every response the rank
// actually sent: when the router processes it, the rank's in-flight
// (query, shard) pairs are exactly the unanswered ones, and each is
// re-issued to the next surviving replica (bounded by
// ResiliencePolicy::max_retries per pair). All replicas of a shard gone
// => typed CommError (op "shard_down"); resilience Off => the first death
// notice is fatal (op "rank_down"). Never a wrong answer, never a hang:
// a rank that cannot even send its notice aborts the World, which wakes
// every blocked peer with a typed error.
//
// Observability: host-measured spans "sharded.route" (router
// scatter+gather), "sharded.shard" (one per server batch) and
// "sharded.merge" (router merge+decide), the "sharded.latency" histogram
// (per query, first dispatch to last shard response), and the
// "rank_failures" / "query_reissues" / "shard_failovers" /
// "shard_requests" counters. The whole tier is host-only — the
// arena-empty invariant holds trivially.

#include <cstddef>
#include <string>
#include <vector>

#include "dist/comm.hpp"
#include "fault/fault_plan.hpp"
#include "fault/resilience.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "serve/bucket_index.hpp"
#include "serve/family_index.hpp"
#include "store/snapshot.hpp"

namespace gpclust::serve {

/// Sentinel for ShardedConfig::kill_rank: no rank is killed.
inline constexpr std::size_t kNoKill = static_cast<std::size_t>(-1);

struct ShardedConfig {
  /// Shard-serving ranks; the router rides an extra rank, so the World is
  /// num_ranks + 1 wide and `rank_down@R` can never kill the router.
  /// There is one shard per serving rank.
  std::size_t num_ranks = 1;

  /// Ranks holding a copy of each shard (1 = no redundancy). Shard s
  /// lives on ranks (s + j) % num_ranks for j < replication.
  std::size_t replication = 1;

  /// Classify workers per serving rank (each with its own scratch).
  std::size_t num_workers = 1;

  /// Bounded per-rank request window: the router never has more than this
  /// many unanswered requests outstanding to one rank (credit-based
  /// backpressure; when the window is full the router drains that rank's
  /// responses before sending more).
  std::size_t queue_capacity = 64;

  /// Off: the first rank death is fatal (typed CommError, op
  /// "rank_down"). Retry/Fallback: in-flight queries to a dead rank are
  /// re-issued to the next surviving replica, at most `max_retries`
  /// re-issues per (query, shard) pair.
  fault::ResiliencePolicy resilience;

  /// Per-shard candidate generator: the shard's filtered postings at
  /// bucket.num_bands == 0 (the default). With banding, every serving rank
  /// builds one BucketIndex per hosted shard over that shard's
  /// representatives — a shard's bucket table is the global table
  /// filtered to its reps, so per-shard candidate sets partition the
  /// single-node set and the router's merge + decide stays bit-identical
  /// to single-node banded classification. Signatures live in the store,
  /// so they shard with their representatives for free; the router and
  /// fail-over are untouched.
  BucketIndexParams bucket;

  ClassifyParams classify;

  /// Capacity of each worker's LRU over representative profiles.
  std::size_t profile_cache_capacity = 64;

  /// Optional fault bindings, shared by every rank (rank_down@R and
  /// comm_fail@send/recv schedules apply; device sites are never hit).
  fault::FaultPlan* fault_plan = nullptr;
  obs::Tracer* tracer = nullptr;

  /// Deterministic mid-stream kill seam for tests/benches: rank
  /// `kill_rank` serves exactly `kill_after_requests` requests, then
  /// sends its death notice and exits. kNoKill disables the seam.
  std::size_t kill_rank = kNoKill;
  std::size_t kill_after_requests = 0;

  void validate() const {
    GPCLUST_CHECK(num_ranks >= 1, "need at least one serving rank");
    GPCLUST_CHECK(replication >= 1 && replication <= num_ranks,
                  "replication must be in [1, num_ranks]");
    GPCLUST_CHECK(num_workers >= 1, "need at least one worker per rank");
    GPCLUST_CHECK(queue_capacity >= 1, "need queue capacity >= 1");
    GPCLUST_CHECK(kill_rank == kNoKill || kill_rank < num_ranks,
                  "kill_rank must name a serving rank");
    classify.validate();
  }
};

/// Router-side accounting of one sharded batch.
struct ShardedStats {
  std::size_t num_shards = 0;
  u64 shard_requests = 0;    ///< requests scored across all serving ranks
  u64 rank_failures = 0;     ///< death notices the router processed
  u64 query_reissues = 0;    ///< in-flight (query, shard) pairs re-issued
  u64 shard_failovers = 0;   ///< shards whose serving replica changed
  obs::Histogram latency;    ///< per query: first dispatch -> last response
};

/// Deterministic shard map: representative -> shard.
inline std::size_t shard_of_rep(u32 rep, std::size_t num_shards) {
  return static_cast<std::size_t>(rep) % num_shards;
}

/// The ranks holding shard `shard`, preference order: the router always
/// serves a shard from the first *surviving* rank in this list.
std::vector<dist::RankId> shard_replicas(std::size_t shard,
                                         std::size_t num_ranks,
                                         std::size_t replication);

/// Order-sensitive FNV-style digest over every field of every result —
/// the bit-identity witness of the chaos tests and the CI smoke.
u64 results_digest(const std::vector<ClassifyResult>& results);

/// Classifies `queries` against `store` on a fresh (num_ranks + 1)-rank
/// World (in-process threads, like dist::distributed_cluster). Returns
/// one result per query, in order, bit-identical to
/// FamilyIndex::classify for every query whenever every shard keeps at
/// least one live replica. Throws dist::CommError (typed, never a hang)
/// otherwise. The store must stay alive for the duration of the call.
std::vector<ClassifyResult> sharded_classify_batch(
    const store::FamilyStore& store, const std::vector<std::string>& queries,
    const ShardedConfig& config, ShardedStats* stats = nullptr);

}  // namespace gpclust::serve
