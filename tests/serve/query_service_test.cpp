// serve::QueryService — worker-pool invariance (bit-identical outcomes
// across pool sizes), bounded-queue backpressure (Off rejects
// immediately, Retry takes counted deterministic backoffs), queue
// timeouts, drain-on-destruction, and the stats/tracer surface.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "seq/family_model.hpp"
#include "serve/query_service.hpp"
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
    return out;
  }
};

TEST(QueryService, BatchMatchesDirectClassification) {
  Fixture fx;
  const auto queries = fx.queries();

  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = queries.size() + 1;
  QueryService service(fx.store, config);
  const auto outcomes = service.classify_batch(queries);

  FamilyIndex index(fx.store);
  ClassifyScratch scratch;
  ASSERT_EQ(outcomes.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(outcomes[i].rejected, RejectReason::None);
    EXPECT_GT(outcomes[i].latency_seconds, 0.0);
    EXPECT_EQ(outcomes[i].result,
              index.classify(queries[i], config.classify, scratch));
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, queries.size());
  EXPECT_EQ(stats.accepted, queries.size());
  EXPECT_EQ(stats.completed, queries.size());
  EXPECT_EQ(stats.rejected_queue_full, 0u);
  EXPECT_EQ(stats.rejected_expired, 0u);
  EXPECT_EQ(service.latency_histogram().count(), queries.size());
}

TEST(QueryService, BandedBucketTableServes) {
  Fixture fx;
  const auto queries = fx.queries();
  ServiceConfig config;
  config.bucket = BucketIndexParams{32, 1};  // banded bucket table
  config.queue_capacity = queries.size() + 1;
  QueryService service(fx.store, config);
  const auto outcomes = service.classify_batch(queries);
  std::size_t assigned = 0;
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.rejected, RejectReason::None);
    if (o.result.outcome == ClassifyOutcome::Assigned) ++assigned;
  }
  // Unmutated members against their own store: banding loses nothing.
  EXPECT_GE(assigned, queries.size() / 2);
}

TEST(QueryService, OutcomesAreIdenticalAcrossWorkerCounts) {
  Fixture fx;
  const auto queries = fx.queries();
  std::vector<std::vector<ClassifyResult>> runs;
  for (std::size_t workers : {1u, 2u, 4u}) {
    ServiceConfig config;
    config.num_workers = workers;
    config.queue_capacity = queries.size() + 1;
    QueryService service(fx.store, config);
    std::vector<ClassifyResult> results;
    for (auto& outcome : service.classify_batch(queries)) {
      ASSERT_EQ(outcome.rejected, RejectReason::None);
      results.push_back(outcome.result);
    }
    runs.push_back(std::move(results));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(QueryService, OffPolicyRejectsImmediatelyWhenQueueIsFull) {
  Fixture fx;
  const auto queries = fx.queries();
  ASSERT_GE(queries.size(), 10u);

  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 4;
  config.start_paused = true;  // queue fills deterministically
  // admission defaults to Off: reject, never wait.
  QueryService service(fx.store, config);

  std::vector<std::future<QueryOutcome>> futures;
  for (std::size_t i = 0; i < 10; ++i) {
    futures.push_back(service.submit(queries[i]));
  }
  {
    const auto stats = service.stats();
    EXPECT_EQ(stats.submitted, 10u);
    EXPECT_EQ(stats.accepted, 4u);
    EXPECT_EQ(stats.rejected_queue_full, 6u);
    EXPECT_EQ(stats.admission_retries, 0u);
    EXPECT_EQ(stats.completed, 0u);  // still paused
  }
  service.resume();

  std::size_t completed = 0, rejected = 0;
  for (auto& future : futures) {
    const auto outcome = future.get();
    if (outcome.rejected == RejectReason::QueueFull) {
      ++rejected;
      EXPECT_EQ(outcome.latency_seconds, 0.0);
    } else {
      ++completed;
      EXPECT_EQ(outcome.rejected, RejectReason::None);
    }
  }
  EXPECT_EQ(completed, 4u);
  EXPECT_EQ(rejected, 6u);

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, stats.accepted);  // every admitted query ran
}

TEST(QueryService, RetryPolicyTakesBoundedBackoffsThenRejects) {
  Fixture fx;
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.start_paused = true;  // nothing drains, so retries cannot win
  config.admission.mode = fault::ResilienceMode::Retry;
  config.admission.max_retries = 3;
  config.admission.retry_backoff_seconds = 1e-5;
  QueryService service(fx.store, config);

  auto accepted = service.submit(fx.queries()[0]);
  auto rejected = service.submit(fx.queries()[1]);
  EXPECT_EQ(rejected.get().rejected, RejectReason::QueueFull);

  const auto stats = service.stats();
  EXPECT_EQ(stats.admission_retries, 3u);  // the full deterministic ladder
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.accepted, 1u);

  service.resume();
  EXPECT_EQ(accepted.get().rejected, RejectReason::None);
}

TEST(QueryService, QueueTimeoutExpiresStaleQueries) {
  Fixture fx;
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 8;
  config.start_paused = true;
  config.queue_timeout_seconds = 1e-4;
  QueryService service(fx.store, config);

  std::vector<std::future<QueryOutcome>> futures;
  for (std::size_t i = 0; i < 3; ++i) {
    futures.push_back(service.submit(fx.queries()[i]));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.resume();
  for (auto& future : futures) {
    const auto outcome = future.get();
    EXPECT_EQ(outcome.rejected, RejectReason::Expired);
    EXPECT_GT(outcome.latency_seconds, config.queue_timeout_seconds);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_expired, 3u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(service.latency_histogram().count(), 0u);  // completions only
}

TEST(QueryService, DestructionDrainsEveryAcceptedQuery) {
  Fixture fx;
  std::vector<std::future<QueryOutcome>> futures;
  {
    ServiceConfig config;
    config.num_workers = 1;
    config.queue_capacity = 8;
    config.start_paused = true;
    QueryService service(fx.store, config);
    for (std::size_t i = 0; i < 3; ++i) {
      futures.push_back(service.submit(fx.queries()[i]));
    }
    // Destroyed while paused with a full queue: the destructor implies
    // resume() and must complete every admitted query.
  }
  FamilyIndex index(fx.store);
  ClassifyScratch scratch;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto outcome = futures[i].get();
    EXPECT_EQ(outcome.rejected, RejectReason::None);
    EXPECT_EQ(outcome.result,
              index.classify(fx.queries()[i], ClassifyParams{}, scratch));
  }
}

TEST(QueryService, TracerSeesCountersSpansAndLatency) {
  Fixture fx;
  const auto queries = fx.queries();
  obs::Tracer tracer;
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = queries.size() + 1;
  config.tracer = &tracer;
  QueryService service(fx.store, config);
  service.classify_batch(queries);

  EXPECT_EQ(tracer.counter("serve.submitted"), queries.size());
  EXPECT_EQ(tracer.counter("serve.accepted"), queries.size());
  EXPECT_EQ(tracer.counter("serve.completed"), queries.size());
  EXPECT_EQ(tracer.counter("serve.rejected_queue_full"), 0u);
  const auto latency = tracer.latency_histogram("serve.latency");
  EXPECT_EQ(latency.count(), queries.size());
  EXPECT_GT(latency.p50(), 0.0);
  EXPECT_LE(latency.p50(), latency.p99());
}

TEST(QueryService, ProfileCacheCountersAggregateAcrossWorkers) {
  Fixture fx;
  const auto queries = fx.queries();
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = queries.size() + 1;
  QueryService service(fx.store, config);
  service.classify_batch(queries);
  service.classify_batch(queries);  // second pass re-hits cached profiles

  const auto stats = service.stats();
  EXPECT_GE(stats.profile_builds, 1u);
  EXPECT_GE(stats.profile_hits, 1u);
  EXPECT_EQ(stats.completed, 2 * queries.size());
}

TEST(QueryService, InvalidConfigIsRejectedAtConstruction) {
  Fixture fx;
  ServiceConfig no_workers;
  no_workers.num_workers = 0;
  EXPECT_THROW(QueryService(fx.store, no_workers), InvalidArgument);
  ServiceConfig no_queue;
  no_queue.queue_capacity = 0;
  EXPECT_THROW(QueryService(fx.store, no_queue), InvalidArgument);
}

}  // namespace
}  // namespace gpclust::serve
