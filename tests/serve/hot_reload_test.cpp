// QueryService hot reload (DESIGN.md §15): reload()/reload_with_delta()
// swap the served store without pausing or draining the worker pool.
// Queries dequeued after the swap classify against the new store (even if
// they were queued before it), answers over the reloaded store are
// bit-identical to a service constructed over it directly, worker profile
// caches reset across generations (rep ids change meaning), and a failed
// delta reload leaves the old generation serving.

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "seq/family_model.hpp"
#include "serve/query_service.hpp"
#include "store/delta.hpp"

namespace gpclust::serve {
namespace {

struct Workload {
  seq::SequenceSet sequences;
  std::vector<u32> family;
};

Workload make_workload() {
  seq::FamilyModelConfig config;
  config.num_families = 6;
  config.min_members = 3;
  config.max_members = 8;
  config.num_background_orfs = 2;
  config.seed = 29;
  auto mg = seq::generate_metagenome(config);
  return {std::move(mg.sequences), std::move(mg.family)};
}

/// Base = store over the first half of the workload, next = store over all
/// of it — the prefix-extension shape snapshot deltas require.
struct Fixture {
  Workload w = make_workload();
  store::FamilyStore base = prefix_store(w.sequences.size() / 2);
  store::FamilyStore next = prefix_store(w.sequences.size());

  store::FamilyStore prefix_store(std::size_t n) const {
    const seq::SequenceSet head(w.sequences.begin(),
                                w.sequences.begin() +
                                    static_cast<std::ptrdiff_t>(n));
    const std::vector<u32> fam(w.family.begin(),
                               w.family.begin() +
                                   static_cast<std::ptrdiff_t>(n));
    return store::build_family_store(head, fam);
  }

  std::vector<std::string> queries() const {
    std::vector<std::string> out;
    for (const auto& record : w.sequences) out.push_back(record.residues);
    return out;
  }

  /// Single-node answers over `store` with the candidate generator
  /// `bucket` selects.
  std::vector<ClassifyResult> direct(
      const store::FamilyStore& store, const ClassifyParams& params,
      const BucketIndexParams& bucket = {}) const {
    FamilyIndex index(store);
    std::optional<BucketIndex> buckets;
    if (bucket.num_bands > 0) buckets.emplace(store, bucket);
    ClassifyScratch scratch;
    std::vector<ClassifyResult> out;
    for (const auto& q : queries()) {
      out.push_back(buckets ? index.classify(q, params, scratch, *buckets)
                            : index.classify(q, params, scratch));
    }
    return out;
  }
};

std::vector<ClassifyResult> results_of(std::vector<QueryOutcome> outcomes) {
  std::vector<ClassifyResult> out;
  for (auto& o : outcomes) {
    EXPECT_EQ(o.rejected, RejectReason::None);
    out.push_back(o.result);
  }
  return out;
}

TEST(QueryServiceReload, SwapsAnswersToTheNewStore) {
  Fixture fx;
  const auto queries = fx.queries();
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = queries.size() + 1;
  QueryService service(fx.base, config);
  EXPECT_EQ(service.generation(), 0u);

  const auto before = results_of(service.classify_batch(queries));
  service.reload(fx.next);
  EXPECT_EQ(service.generation(), 1u);
  const auto after = results_of(service.classify_batch(queries));

  const auto base_direct = fx.direct(fx.base, config.classify);
  const auto next_direct = fx.direct(fx.next, config.classify);
  EXPECT_EQ(before, base_direct);
  EXPECT_EQ(after, next_direct);
  // The swap is observable: the two stores really answer differently
  // (tail-half members are unknown to the base).
  EXPECT_NE(base_direct, next_direct);
}

TEST(QueryServiceReload, QueuedQueriesDequeueAgainstTheSwappedGeneration) {
  // Queries admitted BEFORE the reload but dequeued after it classify
  // against the new store — the queue is never drained for a swap.
  Fixture fx;
  const auto queries = fx.queries();
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = queries.size() + 1;
  config.start_paused = true;
  QueryService service(fx.base, config);

  std::vector<std::future<QueryOutcome>> futures;
  for (const auto& q : queries) futures.push_back(service.submit(q));
  service.reload(fx.next);
  service.resume();

  std::vector<QueryOutcome> outcomes;
  for (auto& f : futures) outcomes.push_back(f.get());
  EXPECT_EQ(results_of(std::move(outcomes)),
            fx.direct(fx.next, config.classify));
}

TEST(QueryServiceReload, DeltaReloadMatchesDirectServiceOverNext) {
  Fixture fx;
  const auto queries = fx.queries();
  const store::SnapshotDelta delta =
      store::build_snapshot_delta(fx.base, fx.next, 1);

  ServiceConfig config;
  config.queue_capacity = queries.size() + 1;
  QueryService service(fx.base, config);
  service.reload_with_delta(delta);
  EXPECT_EQ(service.generation(), 1u);
  EXPECT_EQ(results_of(service.classify_batch(queries)),
            fx.direct(fx.next, config.classify));
}

TEST(QueryServiceReload, FailedDeltaReloadKeepsServingTheOldGeneration) {
  Fixture fx;
  const auto queries = fx.queries();
  // A delta built against `next` cannot apply to `base`: wrong base CRC.
  const store::SnapshotDelta skewed =
      store::build_snapshot_delta(fx.next, fx.next, 1);

  ServiceConfig config;
  config.queue_capacity = queries.size() + 1;
  QueryService service(fx.base, config);
  EXPECT_THROW(service.reload_with_delta(skewed), store::SnapshotError);
  EXPECT_EQ(service.generation(), 0u);
  EXPECT_EQ(results_of(service.classify_batch(queries)),
            fx.direct(fx.base, config.classify));
}

TEST(QueryServiceReload, BucketTableIsRebuiltForTheNewStore) {
  Fixture fx;
  const auto queries = fx.queries();
  ServiceConfig config;
  config.queue_capacity = queries.size() + 1;
  config.bucket = BucketIndexParams{32, 1};
  QueryService service(fx.base, config);
  service.reload(fx.next);
  EXPECT_EQ(results_of(service.classify_batch(queries)),
            fx.direct(fx.next, config.classify, config.bucket));
}

TEST(QueryServiceReload, ProfileCacheResetsAndCountersStayMonotone) {
  Fixture fx;
  const auto queries = fx.queries();
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = queries.size() + 1;
  QueryService service(fx.base, config);

  service.classify_batch(queries);
  service.classify_batch(queries);  // warm: second pass hits the LRU
  const auto warm = service.stats();
  EXPECT_GE(warm.profile_hits, 1u);

  // Reloading the SAME content still starts a new generation: the cache
  // must be rebuilt (rep ids are only trusted within one store), so a
  // re-query costs builds again — and the retired counters keep the
  // stats monotone rather than dropping to zero.
  service.reload(fx.prefix_store(fx.w.sequences.size() / 2));
  service.classify_batch(queries);
  const auto reloaded = service.stats();
  EXPECT_GT(reloaded.profile_builds, warm.profile_builds);
  EXPECT_GE(reloaded.profile_hits, warm.profile_hits);
}

TEST(QueryServiceReload, ReloadsUnderConcurrentLoadServeEveryQuery) {
  // Hammer the service from two submitter threads while the main thread
  // flips between the two stores; every outcome must be exactly the
  // base-store or next-store answer for its query — never a blend.
  Fixture fx;
  const auto queries = fx.queries();
  ServiceConfig config;
  config.num_workers = 4;
  config.queue_capacity = 1024;
  QueryService service(fx.base, config);

  const auto base_direct = fx.direct(fx.base, config.classify);
  const auto next_direct = fx.direct(fx.next, config.classify);

  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> served{0};
  auto submitter = [&] {
    for (int round = 0; round < 10; ++round) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const QueryOutcome outcome = service.submit(queries[i]).get();
        if (outcome.rejected != RejectReason::None) continue;
        ++served;
        if (outcome.result != base_direct[i] &&
            outcome.result != next_direct[i]) {
          ++mismatches;
        }
      }
    }
  };
  std::thread a(submitter), b(submitter);
  for (int flip = 0; flip < 6; ++flip) {
    service.reload(flip % 2 == 0 ? fx.next : fx.base);
  }
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(served.load(), queries.size());
  EXPECT_EQ(service.generation(), 6u);
}

}  // namespace
}  // namespace gpclust::serve
