#include "dist/dist_shingling.hpp"

#include <algorithm>

#include "core/cluster_report.hpp"
#include "core/minhash.hpp"
#include "core/serial_pclust.hpp"
#include "core/shingle.hpp"
#include "core/shingle_graph.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace gpclust::dist {

namespace {

using core::BipartiteShingleGraph;
using core::HashFamily;
using core::ShingleTuples;

/// Shingle extraction over the block of lists [lo, hi) of a shared
/// CSR-style structure; owners are global left-node ids.
ShingleTuples extract_block(std::span<const u64> offsets,
                            std::span<const u32> members,
                            const HashFamily& family, u32 s, std::size_t lo,
                            std::size_t hi, u64 owner_base = 0) {
  ShingleTuples tuples;
  std::vector<u64> minima(s);
  for (u32 j = 0; j < family.size(); ++j) {
    const core::AffineHash& h = family[j];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t len =
          static_cast<std::size_t>(offsets[i + 1] - offsets[i]);
      if (len < s) continue;
      core::min_s_images({members.data() + offsets[i], len}, h, s,
                         {minima.data(), s});
      const ShingleId id = core::hash_shingle(j, {minima.data(), s});
      tuples.append(id, static_cast<u32>(owner_base + i));
    }
  }
  return tuples;
}

/// Exchanges tuples so that shingle id S lands on rank S % size.
ShingleTuples exchange_by_shingle(Communicator& comm, ShingleTuples&& tuples) {
  const std::size_t ranks = comm.size();
  std::vector<std::vector<u64>> shingle_out(ranks);
  std::vector<std::vector<u32>> owner_out(ranks);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const auto dst = static_cast<RankId>(tuples.shingle[i] % ranks);
    shingle_out[dst].push_back(tuples.shingle[i]);
    owner_out[dst].push_back(tuples.owner[i]);
  }
  tuples = ShingleTuples{};
  const auto shingle_in = comm.all_to_all(shingle_out, /*tag=*/10);
  const auto owner_in = comm.all_to_all(owner_out, /*tag=*/11);

  ShingleTuples received;
  for (RankId s = 0; s < ranks; ++s) {
    GPCLUST_CHECK(shingle_in[s].size() == owner_in[s].size(),
                  "tuple exchange out of sync");
    for (std::size_t i = 0; i < shingle_in[s].size(); ++i) {
      received.append(shingle_in[s][i], owner_in[s][i]);
    }
  }
  return received;
}

/// Gathers per-rank bipartite pieces at the root, concatenated in rank
/// order (matching the global id assignment).
BipartiteShingleGraph gather_pieces(Communicator& comm,
                                    const BipartiteShingleGraph& local,
                                    int tag_base) {
  std::vector<u64> sizes;
  sizes.reserve(local.num_left());
  for (std::size_t i = 0; i < local.num_left(); ++i) {
    sizes.push_back(local.offsets[i + 1] - local.offsets[i]);
  }
  const auto all_sizes = comm.gather_to_root(sizes, 0, tag_base);
  const auto all_members = comm.gather_to_root(local.members, 0, tag_base + 1);

  BipartiteShingleGraph full;
  if (comm.rank() == 0) {
    full.offsets.reserve(all_sizes.size() + 1);
    full.offsets.push_back(0);
    for (u64 size : all_sizes) full.offsets.push_back(full.offsets.back() + size);
    full.members = all_members;
    GPCLUST_CHECK(full.offsets.back() == full.members.size(),
                  "gathered shingle graph inconsistent");
  }
  return full;
}

/// Block bounds of rank r over n items.
std::pair<std::size_t, std::size_t> block_of(std::size_t n, RankId r,
                                             std::size_t ranks) {
  const std::size_t chunk = (n + ranks - 1) / ranks;
  const std::size_t lo = std::min(n, r * chunk);
  return {lo, std::min(n, lo + chunk)};
}

}  // namespace

core::Clustering distributed_cluster(const graph::CsrGraph& g,
                                     const core::ShinglingParams& params,
                                     std::size_t num_ranks, DistStats* stats,
                                     obs::Tracer* tracer,
                                     fault::FaultPlan* fault_plan,
                                     fault::ResiliencePolicy resilience) {
  params.validate();
  GPCLUST_CHECK(num_ranks >= 1, "need at least one rank");
  obs::add_counter(tracer, "sequences", g.num_vertices());

  // Rank-down handling: a down rank never comes up. Without resilience
  // that is fatal; with it the run is re-sharded over the survivors (the
  // clustering is bit-identical for any rank count, so reassignment is
  // exactly "run with fewer ranks").
  std::size_t down = 0;
  std::size_t live = num_ranks;
  if (fault_plan != nullptr) {
    std::size_t first_down = num_ranks;
    for (std::size_t r = 0; r < num_ranks; ++r) {
      if (fault_plan->is_rank_down(r)) {
        ++down;
        if (first_down == num_ranks) first_down = r;
      }
    }
    if (down > 0) {
      if (!resilience.enabled()) {
        throw CommError(first_down, "rank_down",
                        "rank marked down by fault plan (resilience off)");
      }
      live = num_ranks - down;
      if (live == 0) {
        throw CommError(first_down, "rank_down",
                        "every rank marked down; nothing to reassign to");
      }
      util::log_warn() << "dist: " << down << " rank(s) down, reassigning "
                       << "shards across " << live << " surviving rank(s)";
      obs::add_counter(tracer, "rank_reassignments", down);
    }
  }

  core::Clustering result;
  u64 exchanged1 = 0, exchanged2 = 0;

  obs::HostSpan ensemble_span(tracer, "dist.cluster");
  run_ranks(live, [&](Communicator& comm) {
    const HashFamily family1(params.c1, params.seed, 1);
    const HashFamily family2(params.c2, params.seed, 2);

    // ---- Pass I over the shared input graph -----------------------------
    const auto [lo, hi] = block_of(g.num_vertices(), comm.rank(), comm.size());
    ShingleTuples local =
        extract_block(g.offsets(), g.adjacency(), family1, params.s1, lo, hi);
    ShingleTuples mine = exchange_by_shingle(comm, std::move(local));
    const u64 pass1_count = comm.all_reduce_sum(mine.size());

    // Local aggregation of my shingle range; global S1 ids by prefix sum.
    BipartiteShingleGraph gi_local = core::aggregate_tuples(std::move(mine));
    const u64 s1_base = comm.exclusive_prefix_sum(gi_local.num_left());

    // ---- Pass II over my local piece of G_I ------------------------------
    ShingleTuples local2 =
        extract_block(gi_local.offsets, gi_local.members, family2, params.s2,
                      0, gi_local.num_left(), s1_base);
    ShingleTuples mine2 = exchange_by_shingle(comm, std::move(local2));
    const u64 pass2_count = comm.all_reduce_sum(mine2.size());
    BipartiteShingleGraph gii_local = core::aggregate_tuples(std::move(mine2));

    // ---- Gather and report at the root -----------------------------------
    const auto gi_full = gather_pieces(comm, gi_local, 20);
    const auto gii_full = gather_pieces(comm, gii_local, 30);
    if (comm.rank() == 0) {
      result = core::report_dense_subgraphs(gi_full, gii_full,
                                            g.num_vertices(), params.mode);
      exchanged1 = pass1_count;
      exchanged2 = pass2_count;
    }
  }, RankRunOptions{fault_plan, resilience, tracer});

  obs::add_counter(tracer, "tuples", exchanged1 + exchanged2);

  if (stats != nullptr) {
    stats->num_ranks = live;
    stats->tuples_exchanged_pass1 = exchanged1;
    stats->tuples_exchanged_pass2 = exchanged2;
    stats->ranks_reassigned = down;
  }
  return result;
}

}  // namespace gpclust::dist
