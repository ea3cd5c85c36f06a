// Sharded-serving chaos tier (ctest label: chaos; tools/ci.sh runs this
// binary under ASan). Three properties of the fault-tolerant serving
// tier (DESIGN.md §12):
//
//   1. Acceptance grid — {1 rank, 4 ranks} x {replication 1, 2} x
//      {no faults, rank_down leaving >= 1 replica per shard} x
//      {postings scan, 32-band bucket table}: results are digest-identical
//      to single-node classification with the same candidate generator.
//   2. Seeded random fault schedules (comm_fail bursts, static rank_down,
//      the mid-stream kill seam, every resilience mode): every run either
//      completes bit-identical or throws a typed CommError. Never a wrong
//      answer, never an untyped error, never a hang (completion of the
//      test IS the no-hang witness; the comm layer wakes every blocked
//      rank on abort).
//   3. World abort semantics under concurrent serving: a rank blocked in
//      recv or barrier while a peer dies mid-scatter wakes with a typed
//      CommError (op "abort"), and the originating failure stays primary.
//
// Plus the arena invariant: a store built by the device-backed clustering
// pipeline and then served through the sharded tier leaves the device
// arena empty — serving is host-only.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "align/homology_graph.hpp"
#include "core/gpclust.hpp"
#include "dist/comm.hpp"
#include "fault/fault_plan.hpp"
#include "seq/family_model.hpp"
#include "serve/bucket_index.hpp"
#include "serve/sharded_service.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace gpclust::serve {
namespace {

seq::SyntheticMetagenome chaos_workload() {
  seq::FamilyModelConfig config;
  config.num_families = 5;
  config.min_members = 3;
  config.max_members = 7;
  config.num_background_orfs = 2;
  config.seed = 31;
  return seq::generate_metagenome(config);
}

struct Fixture {
  seq::SyntheticMetagenome mg = chaos_workload();
  store::FamilyStore store =
      store::build_family_store(mg.sequences, mg.family);

  std::vector<std::string> queries() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < store.num_sequences(); ++i) {
      out.emplace_back(store.sequence(i));
    }
    out.emplace_back("");     // InvalidQuery rides every schedule
    out.emplace_back("ACD");  // NoSeeds too
    return out;
  }

  /// Single-node digest with the candidate generator `bucket` selects.
  u64 expected_digest(const std::vector<std::string>& queries,
                      const BucketIndexParams& bucket = {}) const {
    const FamilyIndex index(store);
    std::optional<BucketIndex> buckets;
    if (bucket.num_bands > 0) buckets.emplace(store, bucket);
    ClassifyScratch scratch;
    std::vector<ClassifyResult> results;
    for (const auto& q : queries) {
      results.push_back(buckets ? index.classify(q, {}, scratch, *buckets)
                                : index.classify(q, {}, scratch));
    }
    return results_digest(results);
  }
};

/// The banded setting the grid and the schedules exercise beside the
/// postings scan.
const BucketIndexParams kBanding{32, 1};

// ---------------------------------------------------------------------------
// 1. Acceptance grid
// ---------------------------------------------------------------------------

TEST(ShardedChaos, DigestIdentityAcceptanceGrid) {
  Fixture fx;
  const auto queries = fx.queries();
  const u64 expected_exact = fx.expected_digest(queries);
  const u64 expected_banded = fx.expected_digest(queries, kBanding);

  for (std::size_t num_ranks : {1u, 4u}) {
    for (std::size_t replication : {1u, 2u}) {
      if (replication > num_ranks) continue;
      for (const bool with_fault : {false, true}) {
        // A static rank_down only leaves every shard a replica when the
        // shards are replicated.
        if (with_fault && replication < 2) continue;
        for (const u64 num_bands : {u64{0}, kBanding.num_bands}) {
          fault::FaultPlan plan;
          if (with_fault) plan.add_rank_down(num_ranks - 1);
          ShardedConfig config;
          config.num_ranks = num_ranks;
          config.replication = replication;
          config.num_workers = 2;
          config.fault_plan = with_fault ? &plan : nullptr;
          config.resilience.mode = fault::ResilienceMode::Fallback;
          config.bucket.num_bands = num_bands;
          ShardedStats stats;
          const auto results =
              sharded_classify_batch(fx.store, queries, config, &stats);
          EXPECT_EQ(results_digest(results),
                    num_bands > 0 ? expected_banded : expected_exact)
              << "ranks=" << num_ranks << " repl=" << replication
              << " fault=" << with_fault << " bands=" << num_bands;
          EXPECT_EQ(stats.rank_failures, with_fault ? 1u : 0u);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Seeded random fault schedules
// ---------------------------------------------------------------------------

/// Random comm-layer schedule: point faults and persistent bursts on
/// send/recv, an occasional static rank_down. Global call indices, so a
/// burst can land on any rank — including the router.
fault::FaultPlan random_comm_plan(u64 seed, std::size_t num_ranks) {
  util::SplitMix64 rng(seed);
  fault::FaultPlan plan;
  const std::size_t num_faults = rng.next() % 3;
  for (std::size_t i = 0; i < num_faults; ++i) {
    const auto site = rng.next() % 2 == 0 ? fault::FaultSite::Send
                                          : fault::FaultSite::Recv;
    const u64 index = rng.next() % 256;
    if (rng.next() % 3 == 0) {
      plan.add_range(site, index, index + 8 + rng.next() % 128);
    } else {
      plan.add(site, index);
    }
  }
  if (rng.next() % 3 == 0) {
    plan.add_rank_down(static_cast<std::size_t>(rng.next() % num_ranks));
  }
  return plan;
}

class ShardedChaosSchedule : public ::testing::TestWithParam<int> {};

TEST_P(ShardedChaosSchedule, CompletesIdenticallyOrFailsTyped) {
  Fixture fx;
  const auto queries = fx.queries();
  const u64 expected_exact = fx.expected_digest(queries);
  const u64 expected_banded = fx.expected_digest(queries, kBanding);

  const u64 seed = 0x5AADEDULL * 1000003ULL + static_cast<u64>(GetParam());
  util::SplitMix64 knob_rng(seed ^ 0x5eedULL);

  const std::size_t num_ranks = 1 + knob_rng.next() % 4;
  const std::size_t replication =
      1 + knob_rng.next() % std::min<std::size_t>(2, num_ranks);

  for (const auto mode :
       {fault::ResilienceMode::Off, fault::ResilienceMode::Retry,
        fault::ResilienceMode::Fallback}) {
    auto plan = random_comm_plan(seed, num_ranks);
    const std::string spec = plan.to_string();
    ShardedConfig config;
    config.num_ranks = num_ranks;
    config.replication = replication;
    config.num_workers = 1 + knob_rng.next() % 2;
    config.queue_capacity = 1 + knob_rng.next() % 8;
    config.fault_plan = &plan;
    config.resilience.mode = mode;
    if (knob_rng.next() % 3 == 0) {
      config.kill_rank = static_cast<std::size_t>(knob_rng.next() % num_ranks);
      config.kill_after_requests = knob_rng.next() % 8;
    }
    // Half the schedules serve through the banded bucket table, against
    // the single-node banded expectation — the bucket tables get
    // exercised under every fault shape (and under ASan when ci.sh runs
    // this binary in the chaos tier).
    if (knob_rng.next() % 2 == 0) config.bucket = kBanding;
    const u64 expected =
        config.bucket.num_bands > 0 ? expected_banded : expected_exact;
    const std::string label =
        "seed=" + std::to_string(seed) +
        " mode=" + std::string(fault::resilience_mode_name(mode)) +
        " ranks=" + std::to_string(num_ranks) +
        " repl=" + std::to_string(replication) + " plan=\"" + spec +
        "\" bands=" + std::to_string(config.bucket.num_bands);
    try {
      const auto results = sharded_classify_batch(fx.store, queries, config);
      // Outcome (a): completion must be bit-identical to single-node.
      EXPECT_EQ(results_digest(results), expected) << label;
    } catch (const dist::CommError& e) {
      // Outcome (b): typed comm failure. Any other exception type escaping
      // fails the harness — the "never a third outcome" half.
      EXPECT_FALSE(std::string(e.what()).empty()) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, ShardedChaosSchedule,
                         ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// 3. Abort semantics under concurrent serving
// ---------------------------------------------------------------------------

TEST(ShardedAbortSemantics, BlockedRecvWakesTypedWhenPeerDiesMidScatter) {
  // A serving-shaped topology: rank 2 scatters, rank 0 dies hard after
  // taking one request, rank 1 sits blocked in recv with no traffic. Both
  // survivors must wake with a typed "abort" CommError — no hang — and
  // the originating "recv" failure stays primary through run_ranks.
  std::atomic<int> woken{0};
  try {
    dist::run_ranks(3, [&](dist::Communicator& comm) {
      if (comm.rank() == 0) {
        (void)comm.recv<u8>(2, 7);
        throw dist::CommError(0, "recv", "simulated hard death mid-scatter");
      } else if (comm.rank() == 1) {
        try {
          (void)comm.recv<u8>(2, 7);  // no request ever comes
          ADD_FAILURE() << "rank 1 recv returned without a message";
        } catch (const dist::CommError& e) {
          EXPECT_EQ(e.op(), "abort");
          ++woken;
          throw;
        }
      } else {
        comm.send(0, 7, std::vector<u8>{1});
        try {
          (void)comm.recv<u8>(0, 8);  // the response that never comes
          ADD_FAILURE() << "rank 2 recv returned without a message";
        } catch (const dist::CommError& e) {
          EXPECT_EQ(e.op(), "abort");
          ++woken;
          throw;
        }
      }
    });
    FAIL() << "expected CommError";
  } catch (const dist::CommError& e) {
    EXPECT_EQ(e.op(), "recv");
    EXPECT_EQ(e.rank(), 0u);
  }
  EXPECT_EQ(woken.load(), 2);
}

TEST(ShardedAbortSemantics, BlockedBarrierWakesTypedWhenPeerDies) {
  std::atomic<int> woken{0};
  try {
    dist::run_ranks(2, [&](dist::Communicator& comm) {
      if (comm.rank() == 0) {
        throw dist::CommError(0, "rank_main", "dies before the barrier");
      }
      try {
        comm.barrier();
        ADD_FAILURE() << "barrier completed with a dead peer";
      } catch (const dist::CommError& e) {
        EXPECT_EQ(e.op(), "abort");
        ++woken;
        throw;
      }
    });
    FAIL() << "expected CommError";
  } catch (const dist::CommError& e) {
    EXPECT_EQ(e.op(), "rank_main");
  }
  EXPECT_EQ(woken.load(), 1);
}

TEST(ShardedAbortSemantics, HardRouterDeathNeverHangsServers) {
  // Resilience Off + a persistent recv-fault burst: some rank (possibly
  // the router) throws the injected fault, the world aborts, every
  // blocked peer wakes typed. The call completing at all is the no-hang
  // assertion.
  Fixture fx;
  const auto queries = fx.queries();
  auto plan = fault::FaultPlan::parse("comm_fail@recv:2-999999");
  ShardedConfig config;
  config.num_ranks = 3;
  config.replication = 2;
  config.fault_plan = &plan;  // resilience Off: first hit is terminal
  try {
    sharded_classify_batch(fx.store, queries, config);
    FAIL() << "expected CommError";
  } catch (const dist::CommError& e) {
    EXPECT_EQ(e.op(), "recv");  // the injected fault, not a bystander abort
  }
}

// ---------------------------------------------------------------------------
// Arena hygiene: device-built store, host-only serving
// ---------------------------------------------------------------------------

TEST(ShardedChaos, DeviceBuiltStoreServesWithEmptyArena) {
  const auto mg = chaos_workload();
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
  const auto graph = align::build_homology_graph(mg.sequences, {});
  core::ShinglingParams params;
  params.c1 = 6;
  params.c2 = 3;
  const auto clustering = core::GpClust(ctx, params).cluster(graph);
  const auto store =
      store::build_family_store(mg.sequences, clustering.labels());

  std::vector<std::string> queries;
  for (std::size_t i = 0; i < store.num_sequences(); ++i) {
    queries.emplace_back(store.sequence(i));
  }
  const FamilyIndex index(store);
  ClassifyScratch scratch;
  std::vector<ClassifyResult> expected;
  for (const auto& q : queries) {
    expected.push_back(index.classify(q, {}, scratch));
  }

  ShardedConfig config;
  config.num_ranks = 4;
  config.replication = 2;
  config.kill_rank = 2;
  config.kill_after_requests = 4;
  config.resilience.mode = fault::ResilienceMode::Fallback;
  const auto results = sharded_classify_batch(store, queries, config);
  EXPECT_EQ(results_digest(results), results_digest(expected));

  // Clustering used the device; serving must not have (host-only tier).
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_EQ(ctx.arena().num_allocations(), 0u);
  EXPECT_GT(ctx.arena().peak(), 0u);
}

}  // namespace
}  // namespace gpclust::serve
