#include "serve/sharded_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "util/thread_pool.hpp"

namespace gpclust::serve {

namespace {

// --------------------------------------------------------------------------
// Wire format (in-process POD vectors over dist::Communicator channels).
//
//   request   [u64 query_id][u64 shard][residue bytes]
//   response  [u64 query_id][u64 shard][u64 invalid][u64 num_candidates]
//             [u64 num_scored][num_scored x ScoredCandidate]
//
// Control messages reuse the query_id field: kShutdownId on the request
// channel tells a server to exit; kDeathNoticeId on the response channel
// is a dying rank's last word (FIFO channels mean it arrives after every
// response the rank actually sent, so at notice time the router's
// in-flight set for that rank is exactly the unanswered set).
// --------------------------------------------------------------------------

constexpr int kRequestTag = 101;
constexpr int kResponseTag = 102;
constexpr u64 kShutdownId = static_cast<u64>(-1);
constexpr u64 kDeathNoticeId = static_cast<u64>(-2);

void put_u64(std::vector<u8>& out, u64 value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(u64));
  std::memcpy(out.data() + at, &value, sizeof(u64));
}

u64 get_u64(const std::vector<u8>& bytes, std::size_t at) {
  GPCLUST_CHECK(at + sizeof(u64) <= bytes.size(), "sharded: short message");
  u64 value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(u64));
  return value;
}

std::vector<u8> encode_request(u64 query_id, u64 shard,
                               std::string_view residues) {
  std::vector<u8> out;
  out.reserve(2 * sizeof(u64) + residues.size());
  put_u64(out, query_id);
  put_u64(out, shard);
  const std::size_t at = out.size();
  out.resize(at + residues.size());
  if (!residues.empty()) {
    std::memcpy(out.data() + at, residues.data(), residues.size());
  }
  return out;
}

struct Request {
  u64 query_id = 0;
  u64 shard = 0;
  std::string_view residues;  ///< view into the raw message bytes
};

Request decode_request(const std::vector<u8>& bytes) {
  Request req;
  req.query_id = get_u64(bytes, 0);
  req.shard = get_u64(bytes, sizeof(u64));
  req.residues =
      std::string_view(reinterpret_cast<const char*>(bytes.data()) +
                           2 * sizeof(u64),
                       bytes.size() - 2 * sizeof(u64));
  return req;
}

std::vector<u8> encode_response(u64 query_id, u64 shard,
                                const CandidateScores& scores) {
  std::vector<u8> out;
  out.reserve(5 * sizeof(u64) + scores.scored.size() * sizeof(ScoredCandidate));
  put_u64(out, query_id);
  put_u64(out, shard);
  put_u64(out, scores.invalid ? 1 : 0);
  put_u64(out, scores.num_candidates);
  put_u64(out, scores.scored.size());
  const std::size_t at = out.size();
  out.resize(at + scores.scored.size() * sizeof(ScoredCandidate));
  if (!scores.scored.empty()) {
    std::memcpy(out.data() + at, scores.scored.data(),
                scores.scored.size() * sizeof(ScoredCandidate));
  }
  return out;
}

std::vector<u8> encode_death_notice(dist::RankId rank) {
  std::vector<u8> out;
  put_u64(out, kDeathNoticeId);
  put_u64(out, static_cast<u64>(rank));
  return out;
}

struct Response {
  u64 query_id = 0;
  u64 shard = 0;
  CandidateScores scores;
};

Response decode_response(const std::vector<u8>& bytes) {
  Response resp;
  resp.query_id = get_u64(bytes, 0);
  resp.shard = get_u64(bytes, sizeof(u64));
  if (resp.query_id == kDeathNoticeId) return resp;
  resp.scores.invalid = get_u64(bytes, 2 * sizeof(u64)) != 0;
  resp.scores.num_candidates =
      static_cast<u32>(get_u64(bytes, 3 * sizeof(u64)));
  const u64 num_scored = get_u64(bytes, 4 * sizeof(u64));
  const std::size_t at = 5 * sizeof(u64);
  GPCLUST_CHECK(at + num_scored * sizeof(ScoredCandidate) == bytes.size(),
                "sharded: response size mismatch");
  resp.scores.scored.resize(num_scored);
  if (num_scored > 0) {
    std::memcpy(resp.scores.scored.data(), bytes.data() + at,
                num_scored * sizeof(ScoredCandidate));
  }
  return resp;
}

/// Host-measured span at depth 1 (worker-thread depth discipline of
/// QueryService: depth-0 stays reserved for the caller's phases, and
/// concurrent rank threads must not share the tracer's nesting counter).
struct Depth1Span {
  Depth1Span(obs::Tracer* tracer, std::string_view name)
      : tracer_(tracer), name_(name) {
    if (tracer_ != nullptr) start_ = tracer_->host_now();
  }
  ~Depth1Span() {
    if (tracer_ != nullptr) {
      tracer_->record_host_span(name_, start_, tracer_->host_now() - start_,
                                1);
    }
  }
  obs::Tracer* tracer_;
  std::string name_;
  double start_ = 0.0;
};

// --------------------------------------------------------------------------
// Shard server: one rank, its hosted shards' filtered postings, a worker
// pool, and the deterministic death seams.
// --------------------------------------------------------------------------

void server_main(dist::Communicator& comm, const store::FamilyStore& store,
                 const ShardedConfig& config,
                 std::atomic<u64>& shard_requests) {
  const dist::RankId rank = comm.rank();
  const dist::RankId router = config.num_ranks;
  const std::size_t num_shards = config.num_ranks;

  const auto send_death_notice = [&] {
    comm.send(router, kResponseTag, encode_death_notice(rank));
  };

  // Static rank_down@R: the rank never comes up. The notice is the only
  // thing it ever sends, so the router fails over on first contact.
  if (config.fault_plan != nullptr && config.fault_plan->is_rank_down(rank)) {
    send_death_notice();
    return;
  }

  const FamilyIndex index(store);

  // Per hosted shard, the candidate generator restricted to that shard's
  // representatives: filtered postings (the (code, rep) sort survives
  // filtering, which score_candidates requires) or, with banding, a
  // BucketIndex over the shard's rep subset — either way a shard's
  // candidates are the single-node candidates for its reps.
  const bool banded = config.bucket.num_bands > 0;
  std::map<u64, std::vector<seq::KmerPosting>> shard_postings;
  std::map<u64, BucketIndex> shard_buckets;
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    const auto replicas =
        shard_replicas(shard, config.num_ranks, config.replication);
    if (std::find(replicas.begin(), replicas.end(), rank) == replicas.end()) {
      continue;
    }
    // An empty postings entry still marks a banded shard as hosted.
    auto& filtered = shard_postings[shard];
    if (banded) {
      std::vector<u32> shard_reps;
      for (u32 r = 0; r < store.representatives.size(); ++r) {
        if (shard_of_rep(r, num_shards) == shard) shard_reps.push_back(r);
      }
      shard_buckets.try_emplace(shard, store, config.bucket,
                                std::span<const u32>(shard_reps));
    } else {
      for (const seq::KmerPosting& p : store.postings) {
        if (shard_of_rep(p.id, num_shards) == shard) filtered.push_back(p);
      }
    }
  }

  std::vector<ClassifyScratch> scratches;
  scratches.reserve(config.num_workers);
  for (std::size_t w = 0; w < config.num_workers; ++w) {
    scratches.emplace_back(config.profile_cache_capacity);
  }
  std::optional<util::ThreadPool> pool;
  if (config.num_workers > 1) pool.emplace(config.num_workers);

  u64 served = 0;
  bool done = false;
  try {
    while (!done) {
      // Drain a batch: one blocking recv, then everything already queued.
      std::vector<std::vector<u8>> batch;
      {
        std::vector<u8> first = comm.recv<u8>(router, kRequestTag);
        if (get_u64(first, 0) == kShutdownId) break;
        batch.push_back(std::move(first));
      }
      std::vector<u8> more;
      while (comm.try_recv(router, kRequestTag, more)) {
        if (get_u64(more, 0) == kShutdownId) {
          done = true;
          break;
        }
        batch.push_back(std::move(more));
      }

      // Deterministic kill seam: serve exactly kill_after_requests
      // requests in arrival order, then die. Truncated requests were
      // dequeued but never answered — the router re-issues them.
      bool dying = false;
      if (rank == config.kill_rank) {
        const u64 budget = config.kill_after_requests > served
                               ? config.kill_after_requests - served
                               : 0;
        if (batch.size() >= budget) {
          batch.resize(budget);
          dying = true;
        }
      }

      if (!batch.empty()) {
        const Depth1Span span(config.tracer, "sharded.shard");
        std::vector<std::vector<u8>> responses(batch.size());
        const auto score_range = [&](std::size_t worker, std::size_t lo,
                                     std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const Request req = decode_request(batch[i]);
            const auto it = shard_postings.find(req.shard);
            GPCLUST_CHECK(it != shard_postings.end(),
                          "sharded: request for a shard this rank "
                          "does not host");
            const CandidateScores scores =
                banded
                    ? index.score_candidates(req.residues, config.classify,
                                             scratches[worker],
                                             shard_buckets.at(req.shard))
                    : index.score_candidates(
                          req.residues, config.classify, scratches[worker],
                          std::span<const seq::KmerPosting>(it->second));
            responses[i] = encode_response(req.query_id, req.shard, scores);
          }
        };
        if (config.num_workers <= 1 || batch.size() <= 1) {
          score_range(0, 0, batch.size());
        } else {
          const std::size_t chunk =
              (batch.size() + config.num_workers - 1) / config.num_workers;
          std::vector<std::future<void>> futures;
          for (std::size_t w = 0; w < config.num_workers; ++w) {
            const std::size_t lo = w * chunk;
            const std::size_t hi = std::min(lo + chunk, batch.size());
            if (lo >= hi) break;
            futures.push_back(
                pool->submit([&, w, lo, hi] { score_range(w, lo, hi); }));
          }
          for (auto& f : futures) f.get();
        }
        // Responses go out in request order: the per-rank FIFO the router
        // relies on is preserved no matter how the batch was scored.
        for (auto& resp : responses) comm.send(router, kResponseTag, resp);
        served += batch.size();
        shard_requests.fetch_add(batch.size(), std::memory_order_relaxed);
        obs::add_counter(config.tracer, "shard_requests", batch.size());
      }

      if (dying) {
        send_death_notice();
        return;
      }
    }
  } catch (const dist::CommError& e) {
    // "abort" means some other rank already died hard — propagate so
    // run_ranks keeps the originating error primary. An injected fault
    // that survived the comm layer's own retries makes THIS rank the
    // casualty: under an enabled resilience policy it dies cleanly (death
    // notice, then exit) so the router can fail over; with resilience off
    // the typed error is terminal, exactly like every other subsystem.
    if (e.op() == "abort" || !config.resilience.enabled()) throw;
    try {
      send_death_notice();
    } catch (...) {
      throw e;  // cannot even say goodbye: abort the world instead
    }
  }
}

// --------------------------------------------------------------------------
// Router: windowed scatter, FIFO gather, fail-over, merge + decide.
// --------------------------------------------------------------------------

class Router {
 public:
  Router(dist::Communicator& comm, const store::FamilyStore& store,
         const std::vector<std::string>& queries, const ShardedConfig& config,
         ShardedStats& stats)
      : comm_(comm),
        index_(store),
        queries_(queries),
        config_(config),
        stats_(stats),
        num_shards_(config.num_ranks),
        alive_(config.num_ranks, true),
        outstanding_(config.num_ranks, 0),
        inflight_(config.num_ranks),
        partial_(queries.size()),
        remaining_(queries.size(), num_shards_),
        started_(queries.size()),
        completed_(queries.size()) {}

  std::vector<ClassifyResult> run() {
    stats_.num_shards = num_shards_;
    {
      const Depth1Span span(config_.tracer, "sharded.route");
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        started_[q] = Clock::now();
        for (std::size_t s = 0; s < num_shards_; ++s) {
          dispatch(static_cast<u64>(q), static_cast<u64>(s), 0);
        }
      }
      while (total_outstanding_ > 0) drain_one(busiest_rank());
    }
    // Every query answered: release the surviving servers. (Dead ranks
    // already exited; their unread mailboxes are garbage-collected with
    // the World.)
    for (dist::RankId r = 0; r < config_.num_ranks; ++r) {
      if (alive_[r]) {
        comm_.send(r, kRequestTag, encode_request(kShutdownId, 0, {}));
      }
    }

    std::vector<ClassifyResult> results(queries_.size());
    {
      const Depth1Span span(config_.tracer, "sharded.merge");
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        results[q] = merge_and_decide(q);
        const double latency =
            std::chrono::duration<double>(completed_[q] - started_[q])
                .count();
        stats_.latency.record(latency);
        if (config_.tracer != nullptr) {
          config_.tracer->record_latency("sharded.latency", latency);
        }
      }
    }
    return results;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct InFlight {
    u64 query = 0;
    u64 shard = 0;
    int attempts = 0;  ///< re-issues so far (0 = first send)
  };

  dist::RankId router_rank() const { return config_.num_ranks; }

  /// First surviving replica of `shard`; throws the tier's terminal error
  /// when the shard is wholly gone.
  dist::RankId primary(u64 shard) const {
    for (dist::RankId r : shard_replicas(static_cast<std::size_t>(shard),
                                         config_.num_ranks,
                                         config_.replication)) {
      if (alive_[r]) return r;
    }
    throw dist::CommError(router_rank(), "shard_down",
                          "all replicas of shard " + std::to_string(shard) +
                              " are down");
  }

  void dispatch(u64 query, u64 shard, int attempts) {
    for (;;) {
      const dist::RankId target = primary(shard);
      if (outstanding_[target] < config_.queue_capacity) {
        comm_.send(target, kRequestTag,
                   encode_request(query, shard,
                                  queries_[static_cast<std::size_t>(query)]));
        inflight_[target].push_back(InFlight{query, shard, attempts});
        ++outstanding_[target];
        ++total_outstanding_;
        return;
      }
      // Window full: make progress on this rank before sending more (the
      // drain may kill the rank, in which case the loop re-picks).
      drain_one(target);
    }
  }

  /// Blocking receive of one response (or death notice) from rank `r`.
  /// Only ever called with outstanding_[r] > 0, so either a response or
  /// the rank's death notice is on its way — never an indefinite wait.
  void drain_one(dist::RankId r) {
    const std::vector<u8> bytes = comm_.recv<u8>(r, kResponseTag);
    Response resp = decode_response(bytes);
    if (resp.query_id == kDeathNoticeId) {
      handle_death(r);
      return;
    }
    GPCLUST_CHECK(!inflight_[r].empty(), "sharded: unsolicited response");
    const InFlight entry = inflight_[r].front();
    inflight_[r].pop_front();
    GPCLUST_CHECK(entry.query == resp.query_id && entry.shard == resp.shard,
                  "sharded: response out of order");
    --outstanding_[r];
    --total_outstanding_;
    accumulate(entry, std::move(resp.scores));
  }

  void accumulate(const InFlight& entry, CandidateScores&& scores) {
    const std::size_t q = static_cast<std::size_t>(entry.query);
    CandidateScores& acc = partial_[q];
    acc.invalid = acc.invalid || scores.invalid;
    acc.num_candidates += scores.num_candidates;
    acc.scored.insert(acc.scored.end(), scores.scored.begin(),
                      scores.scored.end());
    GPCLUST_CHECK(remaining_[q] > 0, "sharded: duplicate shard response");
    if (--remaining_[q] == 0) completed_[q] = Clock::now();
  }

  void handle_death(dist::RankId r) {
    if (!config_.resilience.enabled()) {
      throw dist::CommError(
          r, "rank_down",
          "rank died while serving and resilience is off");
    }
    // Fail-over accounting: shards this rank was actively serving (it was
    // their first surviving replica) move to their next replica.
    std::vector<u64> was_primary;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      for (dist::RankId replica :
           shard_replicas(s, config_.num_ranks, config_.replication)) {
        if (!alive_[replica]) continue;
        if (replica == r) was_primary.push_back(static_cast<u64>(s));
        break;
      }
    }
    alive_[r] = false;
    ++stats_.rank_failures;
    obs::add_counter(config_.tracer, "rank_failures", 1);
    for (u64 s : was_primary) {
      bool survivor = false;
      for (dist::RankId replica :
           shard_replicas(static_cast<std::size_t>(s), config_.num_ranks,
                          config_.replication)) {
        if (alive_[replica]) {
          survivor = true;
          break;
        }
      }
      if (survivor) {
        ++stats_.shard_failovers;
        obs::add_counter(config_.tracer, "shard_failovers", 1);
      }
    }
    // FIFO channels: every response r sent was processed before this
    // notice, so what is in flight is exactly what went unanswered.
    std::deque<InFlight> pending = std::move(inflight_[r]);
    inflight_[r].clear();
    GPCLUST_CHECK(total_outstanding_ >= pending.size(),
                  "sharded: outstanding accounting broke");
    total_outstanding_ -= pending.size();
    outstanding_[r] = 0;
    for (const InFlight& entry : pending) {
      if (entry.attempts >= config_.resilience.max_retries) {
        throw dist::CommError(
            router_rank(), "retry_exhausted",
            "query " + std::to_string(entry.query) + " shard " +
                std::to_string(entry.shard) + " exceeded " +
                std::to_string(config_.resilience.max_retries) +
                " re-issues");
      }
      ++stats_.query_reissues;
      obs::add_counter(config_.tracer, "query_reissues", 1);
      dispatch(entry.query, entry.shard, entry.attempts + 1);
    }
  }

  /// Deterministic gather order: the rank with the most unanswered
  /// requests (smallest id on ties) — drains the deepest backlog first.
  dist::RankId busiest_rank() const {
    dist::RankId best = 0;
    std::size_t best_depth = 0;
    for (dist::RankId r = 0; r < config_.num_ranks; ++r) {
      if (outstanding_[r] > best_depth) {
        best = r;
        best_depth = outstanding_[r];
      }
    }
    GPCLUST_CHECK(best_depth > 0, "sharded: nothing to drain");
    return best;
  }

  /// Concatenated shard answers -> the single-node candidate list: re-sort
  /// by (shared desc, rep asc) — a strict total order, rep indices are
  /// globally unique — and re-truncate to max_candidates. The result is
  /// exactly what score_candidates over the full postings produces, so
  /// decide() yields the single-node answer bit for bit.
  ClassifyResult merge_and_decide(std::size_t q) {
    CandidateScores& acc = partial_[q];
    std::sort(acc.scored.begin(), acc.scored.end(),
              [](const ScoredCandidate& a, const ScoredCandidate& b) {
                return std::pair(b.shared, a.rep) < std::pair(a.shared, b.rep);
              });
    if (acc.scored.size() > config_.classify.max_candidates) {
      acc.scored.resize(config_.classify.max_candidates);
    }
    return index_.decide(queries_[q], config_.classify, acc);
  }

  dist::Communicator& comm_;
  const FamilyIndex index_;
  const std::vector<std::string>& queries_;
  const ShardedConfig& config_;
  ShardedStats& stats_;
  const std::size_t num_shards_;

  std::vector<char> alive_;
  std::vector<std::size_t> outstanding_;
  std::vector<std::deque<InFlight>> inflight_;
  std::size_t total_outstanding_ = 0;

  std::vector<CandidateScores> partial_;
  std::vector<std::size_t> remaining_;
  std::vector<Clock::time_point> started_;
  std::vector<Clock::time_point> completed_;
};

}  // namespace

std::vector<dist::RankId> shard_replicas(std::size_t shard,
                                         std::size_t num_ranks,
                                         std::size_t replication) {
  GPCLUST_CHECK(shard < num_ranks, "shard out of range");
  GPCLUST_CHECK(replication >= 1 && replication <= num_ranks,
                "replication must be in [1, num_ranks]");
  std::vector<dist::RankId> replicas;
  replicas.reserve(replication);
  for (std::size_t j = 0; j < replication; ++j) {
    replicas.push_back((shard + j) % num_ranks);
  }
  return replicas;
}

u64 results_digest(const std::vector<ClassifyResult>& results) {
  u64 digest = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&digest](u64 value) {
    digest ^= value;
    digest *= 1099511628211ull;  // FNV-1a prime
  };
  mix(results.size());
  for (const ClassifyResult& r : results) {
    mix(static_cast<u64>(r.outcome));
    mix(r.family);
    mix(r.best_rep);
    mix(static_cast<u64>(static_cast<i64>(r.score)));
    mix(r.shared_kmers);
    mix(r.num_candidates);
    mix(r.num_alignments);
  }
  return digest;
}

std::vector<ClassifyResult> sharded_classify_batch(
    const store::FamilyStore& store, const std::vector<std::string>& queries,
    const ShardedConfig& config, ShardedStats* stats) {
  config.validate();
  if (config.fault_plan != nullptr) {
    // A static rank_down must leave the topology validatable up front:
    // the router rank cannot be killed (it is not a serving rank).
    GPCLUST_CHECK(!config.fault_plan->is_rank_down(config.num_ranks),
                  "fault plan kills the router rank");
  }

  ShardedStats local_stats;
  std::atomic<u64> shard_requests{0};
  std::vector<ClassifyResult> results;

  dist::RankRunOptions options;
  options.fault_plan = config.fault_plan;
  options.resilience = config.resilience;
  options.tracer = config.tracer;

  dist::run_ranks(
      config.num_ranks + 1,
      [&](dist::Communicator& comm) {
        if (comm.rank() < config.num_ranks) {
          server_main(comm, store, config, shard_requests);
        } else {
          Router router(comm, store, queries, config, local_stats);
          results = router.run();
        }
      },
      options);

  local_stats.shard_requests = shard_requests.load(std::memory_order_relaxed);
  if (stats != nullptr) *stats = std::move(local_stats);
  return results;
}

}  // namespace gpclust::serve
