// serve::sharded_classify_batch — the sharded fault-tolerant serving
// tier (DESIGN.md §12). The headline invariant: for any {num_ranks,
// replication, worker count, fault plan leaving >= 1 live replica per
// shard}, results are bit-identical to single-node FamilyIndex::classify.
// Plus the fail-over state machine: static rank_down and the
// deterministic mid-stream kill seam fail over with counted reissues;
// resilience Off makes the first death fatal (op "rank_down"); a shard
// with no surviving replica is a typed "shard_down" / "retry_exhausted"
// error, never a wrong answer or a hang.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "seq/family_model.hpp"
#include "serve/sharded_service.hpp"
#include "store/snapshot.hpp"

namespace gpclust::serve {
namespace {

seq::SyntheticMetagenome make_workload() {
  seq::FamilyModelConfig config;
  config.num_families = 6;
  config.min_members = 3;
  config.max_members = 8;
  config.num_background_orfs = 2;
  config.seed = 23;
  return seq::generate_metagenome(config);
}

struct Fixture {
  seq::SyntheticMetagenome mg = make_workload();
  store::FamilyStore store =
      store::build_family_store(mg.sequences, mg.family);

  std::vector<std::string> queries() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < store.num_sequences(); ++i) {
      out.emplace_back(store.sequence(i));
    }
    // Edge queries ride along: empty (InvalidQuery), non-protein
    // (InvalidQuery), too short to seed (NoSeeds).
    out.emplace_back("");
    out.emplace_back("not a protein!");
    out.emplace_back("ACD");
    return out;
  }

  std::vector<ClassifyResult> single_node(
      const std::vector<std::string>& queries,
      const ClassifyParams& params = {}) const {
    const FamilyIndex index(store);
    ClassifyScratch scratch;
    std::vector<ClassifyResult> results;
    results.reserve(queries.size());
    for (const auto& q : queries) {
      results.push_back(index.classify(q, params, scratch));
    }
    return results;
  }
};

fault::ResiliencePolicy failover_policy() {
  fault::ResiliencePolicy policy;
  policy.mode = fault::ResilienceMode::Fallback;
  return policy;
}

// ---------------------------------------------------------------------------
// Shard map + classify decomposition
// ---------------------------------------------------------------------------

TEST(ShardMap, ReplicasAreDistinctConsecutiveAndCovering) {
  for (std::size_t num_ranks : {1u, 3u, 4u}) {
    for (std::size_t replication = 1; replication <= num_ranks;
         ++replication) {
      for (std::size_t shard = 0; shard < num_ranks; ++shard) {
        const auto replicas = shard_replicas(shard, num_ranks, replication);
        ASSERT_EQ(replicas.size(), replication);
        EXPECT_EQ(replicas[0], shard);  // home rank serves its own shard
        const std::set<dist::RankId> distinct(replicas.begin(),
                                              replicas.end());
        EXPECT_EQ(distinct.size(), replication);
        for (dist::RankId r : replicas) EXPECT_LT(r, num_ranks);
      }
    }
  }
  EXPECT_THROW(shard_replicas(4, 4, 1), InvalidArgument);
  EXPECT_THROW(shard_replicas(0, 4, 5), InvalidArgument);
}

TEST(ShardMap, ScoreCandidatesOverShardPostingsMergesToClassify) {
  // The decomposition the tier rests on, without any ranks: score each
  // shard's postings subset, merge (concat, re-sort, re-truncate), decide
  // — must equal plain classify for every query.
  Fixture fx;
  const FamilyIndex index(fx.store);
  const ClassifyParams params;
  const std::size_t num_shards = 3;

  std::vector<std::vector<seq::KmerPosting>> per_shard(num_shards);
  for (const seq::KmerPosting& p : fx.store.postings) {
    per_shard[shard_of_rep(p.id, num_shards)].push_back(p);
  }

  ClassifyScratch scratch;
  for (const auto& query : fx.queries()) {
    CandidateScores merged;
    for (const auto& postings : per_shard) {
      const CandidateScores part = index.score_candidates(
          query, params, scratch,
          std::span<const seq::KmerPosting>(postings));
      merged.invalid = merged.invalid || part.invalid;
      merged.num_candidates += part.num_candidates;
      merged.scored.insert(merged.scored.end(), part.scored.begin(),
                           part.scored.end());
    }
    std::sort(merged.scored.begin(), merged.scored.end(),
              [](const ScoredCandidate& a, const ScoredCandidate& b) {
                return std::pair(b.shared, a.rep) < std::pair(a.shared, b.rep);
              });
    if (merged.scored.size() > params.max_candidates) {
      merged.scored.resize(params.max_candidates);
    }
    EXPECT_EQ(index.decide(query, params, merged),
              index.classify(query, params, scratch))
        << "query of length " << query.size();
  }
}

TEST(ShardedConfigValidation, RejectsBadTopologies) {
  Fixture fx;
  const std::vector<std::string> queries = {"ACDEFGHIKL"};
  {
    ShardedConfig config;
    config.num_ranks = 2;
    config.replication = 3;  // more replicas than ranks
    EXPECT_THROW(sharded_classify_batch(fx.store, queries, config),
                 InvalidArgument);
  }
  {
    ShardedConfig config;
    config.num_ranks = 2;
    config.replication = 0;
    EXPECT_THROW(sharded_classify_batch(fx.store, queries, config),
                 InvalidArgument);
  }
  {
    ShardedConfig config;
    config.num_ranks = 2;
    config.kill_rank = 2;  // not a serving rank
    EXPECT_THROW(sharded_classify_batch(fx.store, queries, config),
                 InvalidArgument);
  }
  {
    // The router rides rank num_ranks and must not be killable.
    ShardedConfig config;
    config.num_ranks = 2;
    fault::FaultPlan plan;
    plan.add_rank_down(2);
    config.fault_plan = &plan;
    config.resilience = failover_policy();
    EXPECT_THROW(sharded_classify_batch(fx.store, queries, config),
                 InvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity without faults
// ---------------------------------------------------------------------------

TEST(ShardedService, BitIdenticalAcrossRanksReplicationAndWorkers) {
  Fixture fx;
  const auto queries = fx.queries();
  const auto expected = fx.single_node(queries);
  const u64 expected_digest = results_digest(expected);

  for (std::size_t num_ranks : {1u, 2u, 4u}) {
    for (std::size_t replication : {1u, 2u}) {
      if (replication > num_ranks) continue;
      for (std::size_t num_workers : {1u, 2u}) {
        ShardedConfig config;
        config.num_ranks = num_ranks;
        config.replication = replication;
        config.num_workers = num_workers;
        ShardedStats stats;
        const auto results =
            sharded_classify_batch(fx.store, queries, config, &stats);
        ASSERT_EQ(results.size(), queries.size());
        EXPECT_EQ(results, expected)
            << "ranks=" << num_ranks << " repl=" << replication
            << " workers=" << num_workers;
        EXPECT_EQ(results_digest(results), expected_digest);
        EXPECT_EQ(stats.num_shards, num_ranks);
        // Every (query, shard) pair is scored exactly once.
        EXPECT_EQ(stats.shard_requests, queries.size() * num_ranks);
        EXPECT_EQ(stats.rank_failures, 0u);
        EXPECT_EQ(stats.query_reissues, 0u);
        EXPECT_EQ(stats.shard_failovers, 0u);
        EXPECT_EQ(stats.latency.count(), queries.size());
      }
    }
  }
}

TEST(ShardedService, TinyWindowStillBitIdentical) {
  // queue_capacity 1 forces a drain before every second send to a rank —
  // the maximal-backpressure schedule.
  Fixture fx;
  const auto queries = fx.queries();
  ShardedConfig config;
  config.num_ranks = 4;
  config.replication = 2;
  config.num_workers = 2;
  config.queue_capacity = 1;
  const auto results = sharded_classify_batch(fx.store, queries, config);
  EXPECT_EQ(results, fx.single_node(queries));
}

// ---------------------------------------------------------------------------
// Fail-over
// ---------------------------------------------------------------------------

TEST(ShardedService, StaticRankDownFailsOverBitIdentical) {
  Fixture fx;
  const auto queries = fx.queries();
  const auto expected = fx.single_node(queries);

  fault::FaultPlan plan;
  plan.add_rank_down(1);
  ShardedConfig config;
  config.num_ranks = 4;
  config.replication = 2;
  config.fault_plan = &plan;
  config.resilience = failover_policy();

  ShardedStats stats;
  const auto results =
      sharded_classify_batch(fx.store, queries, config, &stats);
  EXPECT_EQ(results, expected);
  EXPECT_EQ(stats.rank_failures, 1u);
  // Rank 1 was the home (primary) replica of shard 1: its in-flight
  // requests moved to rank 2, and the shard failed over exactly once.
  EXPECT_EQ(stats.shard_failovers, 1u);
  EXPECT_GE(stats.query_reissues, 1u);
  // Reissued pairs are scored exactly once by the surviving replica.
  EXPECT_EQ(stats.shard_requests, queries.size() * config.num_ranks);
}

TEST(ShardedService, MidStreamKillFailsOverBitIdentical) {
  Fixture fx;
  const auto queries = fx.queries();
  const auto expected = fx.single_node(queries);

  ShardedConfig config;
  config.num_ranks = 4;
  config.replication = 2;
  config.kill_rank = 1;
  config.kill_after_requests = 3;
  config.resilience = failover_policy();

  ShardedStats stats;
  const auto results =
      sharded_classify_batch(fx.store, queries, config, &stats);
  EXPECT_EQ(results, expected);
  EXPECT_EQ(stats.rank_failures, 1u);
  EXPECT_EQ(stats.shard_failovers, 1u);
  // Rank 1 answered exactly 3 requests before dying; every other (query,
  // shard) pair was scored exactly once somewhere.
  EXPECT_EQ(stats.shard_requests, queries.size() * config.num_ranks);
  EXPECT_GE(stats.query_reissues, 1u);
}

TEST(ShardedService, KillAtZeroRequestsIsFullFailover) {
  Fixture fx;
  const auto queries = fx.queries();
  ShardedConfig config;
  config.num_ranks = 2;
  config.replication = 2;
  config.kill_rank = 0;
  config.kill_after_requests = 0;  // dies on first contact
  config.resilience = failover_policy();
  ShardedStats stats;
  const auto results =
      sharded_classify_batch(fx.store, queries, config, &stats);
  EXPECT_EQ(results, fx.single_node(queries));
  EXPECT_EQ(stats.rank_failures, 1u);
  EXPECT_EQ(stats.shard_requests, queries.size() * config.num_ranks);
}

TEST(ShardedService, RankDownWithResilienceOffIsTypedFatal) {
  Fixture fx;
  const auto queries = fx.queries();
  fault::FaultPlan plan;
  plan.add_rank_down(0);
  ShardedConfig config;
  config.num_ranks = 2;
  config.replication = 2;
  config.fault_plan = &plan;  // resilience stays Off
  try {
    sharded_classify_batch(fx.store, queries, config);
    FAIL() << "expected CommError";
  } catch (const dist::CommError& e) {
    EXPECT_EQ(e.op(), "rank_down");
    EXPECT_EQ(e.rank(), 0u);
  }
}

TEST(ShardedService, AllReplicasDownIsTypedShardDown) {
  Fixture fx;
  const auto queries = fx.queries();
  fault::FaultPlan plan;
  plan.add_rank_down(1);
  ShardedConfig config;
  config.num_ranks = 2;
  config.replication = 1;  // shard 1 lives only on rank 1
  config.fault_plan = &plan;
  config.resilience = failover_policy();
  try {
    sharded_classify_batch(fx.store, queries, config);
    FAIL() << "expected CommError";
  } catch (const dist::CommError& e) {
    EXPECT_EQ(e.op(), "shard_down");
  }
}

TEST(ShardedService, ExhaustedRetryBudgetIsTyped) {
  Fixture fx;
  const auto queries = fx.queries();
  fault::FaultPlan plan;
  plan.add_rank_down(0);
  ShardedConfig config;
  config.num_ranks = 2;
  config.replication = 2;
  config.fault_plan = &plan;
  config.resilience = failover_policy();
  config.resilience.max_retries = 0;  // any reissue exceeds the budget
  try {
    sharded_classify_batch(fx.store, queries, config);
    FAIL() << "expected CommError";
  } catch (const dist::CommError& e) {
    EXPECT_EQ(e.op(), "retry_exhausted");
  }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

TEST(ShardedService, TracerSeesSpansCountersAndLatency) {
  Fixture fx;
  const auto queries = fx.queries();
  obs::Tracer tracer;
  ShardedConfig config;
  config.num_ranks = 2;
  config.replication = 2;
  config.kill_rank = 1;
  config.kill_after_requests = 2;
  config.resilience = failover_policy();
  config.tracer = &tracer;
  ShardedStats stats;
  const auto results =
      sharded_classify_batch(fx.store, queries, config, &stats);
  EXPECT_EQ(results, fx.single_node(queries));

  std::size_t route = 0, shard = 0, merge = 0;
  for (const auto& event : tracer.events()) {
    EXPECT_EQ(event.domain, obs::Domain::HostMeasured) << event.name;
    EXPECT_EQ(event.depth, 1) << event.name;
    if (event.name == "sharded.route") ++route;
    if (event.name == "sharded.shard") ++shard;
    if (event.name == "sharded.merge") ++merge;
  }
  EXPECT_EQ(route, 1u);
  EXPECT_EQ(merge, 1u);
  EXPECT_GE(shard, 2u);  // both ranks served at least one batch

  EXPECT_EQ(tracer.counter("rank_failures"), stats.rank_failures);
  EXPECT_EQ(tracer.counter("query_reissues"), stats.query_reissues);
  EXPECT_EQ(tracer.counter("shard_failovers"), stats.shard_failovers);
  EXPECT_EQ(tracer.counter("shard_requests"), stats.shard_requests);
  EXPECT_EQ(tracer.latency_histogram("sharded.latency").count(),
            queries.size());
  EXPECT_EQ(stats.latency.count(), queries.size());
  EXPECT_GT(stats.latency.max_seconds(), 0.0);
}

TEST(ShardedService, DigestDistinguishesDifferentResults) {
  Fixture fx;
  const auto queries = fx.queries();
  const auto results = fx.single_node(queries);
  auto mutated = results;
  mutated[0].score += 1;
  EXPECT_NE(results_digest(results), results_digest(mutated));
  EXPECT_EQ(results_digest(results), results_digest(fx.single_node(queries)));
}

}  // namespace
}  // namespace gpclust::serve
