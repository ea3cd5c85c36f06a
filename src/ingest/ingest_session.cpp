#include "ingest/ingest_session.hpp"

#include <algorithm>

#include "align/kmer_index.hpp"
#include "align/lsh_seeds.hpp"
#include "core/serial_pclust.hpp"
#include "graph/union_find.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gpclust::ingest {

namespace {

constexpr u64 pair_key(u32 a, u32 b) {
  return (static_cast<u64>(a) << 32) | b;
}

/// Rolls the sequence append back unless the batch commits — the strong
/// exception guarantee for ingest(): a thrown verify fault (injected or
/// real) leaves the session exactly as it was.
struct SequenceRollback {
  seq::SequenceSet& sequences;
  std::size_t old_size;
  bool committed = false;
  ~SequenceRollback() {
    if (!committed) sequences.resize(old_size);
  }
};

}  // namespace

IngestSession::IngestSession(IngestConfig config)
    : config_(std::move(config)) {
  GPCLUST_CHECK(config_.graph.seed_mode == align::SeedMode::KmerCount ||
                    config_.graph.seed_mode == align::SeedMode::MinHashLsh,
                "ingest supports the kmer and minhash seed modes (maximal "
                "has no incremental index seam)");
  GPCLUST_CHECK(!config_.graph.prefilter.enabled,
                "the heuristic prefilter tier is not append-consistent; "
                "disable it for ingest");
  GPCLUST_CHECK(config_.shingling.mode == core::ReportMode::Partition,
                "ingest splices strict partitions; use ReportMode::Partition");
  GPCLUST_CHECK(config_.engine == ClusterEngine::Serial ||
                    config_.device != nullptr,
                "the Device engine needs a DeviceContext");
  if (config_.graph.tracer == nullptr) config_.graph.tracer = config_.tracer;
  if (config_.device_options.tracer == nullptr) {
    config_.device_options.tracer = config_.tracer;
  }
}

IngestSession::IngestSession(IngestConfig config,
                             const store::FamilyStore& base)
    : IngestSession(std::move(config)) {
  // Adopt the snapshot's sequences and partition...
  seq::SequenceSet adopted(base.num_sequences());
  for (std::size_t i = 0; i < base.num_sequences(); ++i) {
    adopted[i].id = std::string(base.id(i));
    adopted[i].residues = std::string(base.sequence(i));
  }
  std::vector<std::vector<VertexId>> clusters(base.num_families);
  for (std::size_t i = 0; i < base.family_of.size(); ++i) {
    GPCLUST_CHECK(base.family_of[i] < base.num_families,
                  "snapshot family label out of range");
    clusters[base.family_of[i]].push_back(static_cast<VertexId>(i));
  }
  for (std::size_t f = 0; f < clusters.size(); ++f) {
    GPCLUST_CHECK(!clusters[f].empty(), "snapshot has an empty family");
    GPCLUST_CHECK(f == 0 || clusters[f - 1].front() < clusters[f].front(),
                  "snapshot families are not in canonical order (ascending "
                  "by smallest member)");
  }

  // ...then rebuild the standing index and edge set by replaying the
  // cascade once over the adopted sequences. ingest() of "everything" into
  // an empty session IS the from-scratch run, so reuse it, then restore
  // the snapshot's partition (which the replay just reproduced — the
  // equivalence tests pin this — but adopting the snapshot's own labels
  // keeps resume honest even if the caller's config differs).
  ingest(adopted);
  clusters_ = std::move(clusters);
  last_store_.reset();
}

core::Clustering IngestSession::cluster_graph(const graph::CsrGraph& g) const {
  if (config_.engine == ClusterEngine::Device) {
    core::GpClust engine(*config_.device, config_.shingling,
                         config_.device_options);
    return engine.cluster(g);
  }
  return core::SerialShingler(config_.shingling)
      .cluster(g, nullptr, config_.tracer);
}

core::Clustering IngestSession::clustering() const {
  return core::Clustering(clusters_, sequences_.size());
}

store::FamilyStore IngestSession::store() const {
  std::vector<u32> labels(sequences_.size());
  for (std::size_t f = 0; f < clusters_.size(); ++f) {
    for (const VertexId v : clusters_[f]) labels[v] = static_cast<u32>(f);
  }
  return store::build_family_store(sequences_, labels, config_.store);
}

IngestSession::SeedOutput IngestSession::incremental_seed_kmer(
    std::size_t first_new) const {
  const align::KmerIndexConfig& cfg = config_.graph.seeds;
  GPCLUST_CHECK(cfg.k >= 2 && cfg.k <= 12, "k must be in [2, 12]");
  SeedOutput out;

  // The batch's postings from the shared builder, ids shifted past the
  // standing sequences.
  std::vector<seq::KmerPosting> fresh = seq::build_kmer_postings(
      sequences_.size() - first_new,
      [&](std::size_t i) -> std::string_view {
        return sequences_[first_new + i].residues;
      },
      cfg.k, util::Workers(config_.graph.num_threads));
  for (seq::KmerPosting& p : fresh) p.id += static_cast<u32>(first_new);

  // Merge into the standing (code, id)-sorted array. Old ids < new ids,
  // so within a code run the old prefix / new suffix split is positional.
  out.merged_postings.resize(postings_.size() + fresh.size());
  std::merge(postings_.begin(), postings_.end(), fresh.begin(), fresh.end(),
             out.merged_postings.begin());
  const std::span<const seq::KmerPosting> merged = out.merged_postings;

  // Walk each k-mer the batch touched once. Unmasked runs emit seeds for
  // new-involving pairs; a run whose occupancy crossed max this batch
  // dirties its old-old pairs (append-monotone: old-old candidacy can only
  // be lost, never gained — a code shared by two old sequences already
  // counted both before the batch).
  std::vector<align::PairSeed> seeds;
  for (std::size_t flo = 0; flo < fresh.size();) {
    std::size_t fhi = flo;
    while (fhi < fresh.size() && fresh[fhi].code == fresh[flo].code) ++fhi;
    const std::span<const seq::KmerPosting> run =
        seq::postings_run(merged, fresh[flo].code);
    flo = fhi;

    std::size_t old_end = 0;
    while (old_end < run.size() && run[old_end].id < first_new) ++old_end;
    if (run.size() >= 2 && run.size() <= cfg.max_kmer_occurrences) {
      for (std::size_t x = 0; x < run.size(); ++x) {
        // Pairs (x, y), x < y, skipping old-old: when x is old, start y at
        // the new suffix; when x is new, every later y qualifies.
        for (std::size_t y = std::max(x + 1, old_end); y < run.size(); ++y) {
          seeds.push_back({pair_key(run[x].id, run[y].id),
                           static_cast<i32>(run[x].pos) -
                               static_cast<i32>(run[y].pos)});
        }
      }
    } else if (old_end >= 2 && old_end <= cfg.max_kmer_occurrences &&
               run.size() > cfg.max_kmer_occurrences) {
      for (std::size_t x = 0; x < old_end; ++x) {
        for (std::size_t y = x + 1; y < old_end; ++y) {
          out.dirty_keys.push_back(pair_key(run[x].id, run[y].id));
        }
      }
    }
  }

  // Promote exactly as the from-scratch index does.
  out.pairs.resize(align::sort_pair_seeds(seeds, cfg.min_shared_kmers));
  align::promote_pair_seeds(seeds, cfg.min_shared_kmers, out.pairs);

  std::sort(out.dirty_keys.begin(), out.dirty_keys.end());
  out.dirty_keys.erase(
      std::unique(out.dirty_keys.begin(), out.dirty_keys.end()),
      out.dirty_keys.end());
  return out;
}

IngestSession::SeedOutput IngestSession::incremental_seed_lsh(
    std::size_t first_new) const {
  const align::LshSeedConfig& cfg = config_.graph.lsh;
  cfg.validate();
  const seq::BandLayout layout{cfg.num_bands, cfg.rows_per_band};
  const u64 width = layout.width();
  SeedOutput out;

  // Sketch the batch with the session's fixed permutation set.
  const std::size_t num_new = sequences_.size() - first_new;
  out.new_signatures.resize(num_new * width);
  std::vector<u64> scratch;
  for (std::size_t i = 0; i < num_new; ++i) {
    seq::distinct_kmer_codes(sequences_[first_new + i].residues, cfg.k,
                             scratch);
    sketch_hashes_->sketch(
        scratch, std::span<u64>(out.new_signatures).subspan(i * width, width));
  }

  // New band-table entries, merged into the standing table in its own
  // order.
  std::vector<seq::BandEntry> fresh;
  for (u64 band = 0; band < cfg.num_bands; ++band) {
    seq::append_band_entries(out.new_signatures, layout, band,
                             static_cast<u32>(first_new), fresh);
  }
  std::sort(fresh.begin(), fresh.end());
  out.merged_entries.resize(entries_.size() + fresh.size());
  std::merge(entries_.begin(), entries_.end(), fresh.begin(), fresh.end(),
             out.merged_entries.begin());

  // Walk each bucket the batch touched once. A sequence lands in exactly
  // one bucket per band, so a pair shares at most one bucket per band and
  // the per-pair hit counts need no within-band dedup. Occupancy is
  // monotone under appends: old-old pairs only ever lose buckets (to
  // masking), never gain them. A bucket's ids ascend, so its old members
  // are a prefix.
  std::vector<u64> hits;  ///< one key per (pair, colliding unmasked bucket)
  for (std::size_t flo = 0; flo < fresh.size();) {
    const seq::BandEntry& first = fresh[flo];
    flo += seq::band_bucket(fresh, first.band, first.key).size();
    const std::span<const seq::BandEntry> run =
        seq::band_bucket(out.merged_entries, first.band, first.key);

    std::size_t old_end = 0;
    while (old_end < run.size() && run[old_end].id < first_new) ++old_end;
    if (run.size() >= 2 && run.size() <= cfg.max_bucket_size) {
      for (std::size_t x = 0; x < run.size(); ++x) {
        for (std::size_t y = std::max(x + 1, old_end); y < run.size(); ++y) {
          hits.push_back(pair_key(run[x].id, run[y].id));
        }
      }
    } else if (old_end >= 2 && old_end <= cfg.max_bucket_size &&
               run.size() > cfg.max_bucket_size) {
      for (std::size_t x = 0; x < old_end; ++x) {
        for (std::size_t y = x + 1; y < old_end; ++y) {
          out.dirty_keys.push_back(pair_key(run[x].id, run[y].id));
        }
      }
    }
  }

  // Band-hit threshold (one hit per colliding bucket), then the
  // from-scratch stage's exact recount.
  std::sort(hits.begin(), hits.end());
  std::vector<u64> keys;
  for (std::size_t lo = 0; lo < hits.size();) {
    std::size_t hi = lo;
    while (hi < hits.size() && hits[hi] == hits[lo]) ++hi;
    if (hi - lo >= cfg.min_band_hits) keys.push_back(hits[lo]);
    lo = hi;
  }
  align::recount_lsh_candidates(sequences_, keys, cfg, out.pairs);

  std::sort(out.dirty_keys.begin(), out.dirty_keys.end());
  out.dirty_keys.erase(
      std::unique(out.dirty_keys.begin(), out.dirty_keys.end()),
      out.dirty_keys.end());
  return out;
}

bool IngestSession::still_candidate_kmer(
    u32 a, u32 b, const std::vector<seq::KmerPosting>& postings) const {
  const align::KmerIndexConfig& cfg = config_.graph.seeds;
  std::vector<u64> codes_a, codes_b, shared;
  seq::distinct_kmer_codes(sequences_[a].residues, cfg.k, codes_a);
  seq::distinct_kmer_codes(sequences_[b].residues, cfg.k, codes_b);
  std::set_intersection(codes_a.begin(), codes_a.end(), codes_b.begin(),
                        codes_b.end(), std::back_inserter(shared));
  // A shared code counts iff its post-batch occupancy is unmasked — the
  // same [2, max] window the from-scratch run applies globally.
  std::size_t unmasked = 0;
  for (const u64 code : shared) {
    const std::size_t occ = seq::postings_run(postings, code).size();
    if (occ >= 2 && occ <= cfg.max_kmer_occurrences &&
        ++unmasked >= cfg.min_shared_kmers) {
      return true;
    }
  }
  return false;
}

bool IngestSession::still_candidate_lsh(
    u32 a, u32 b, const std::vector<u64>& signatures,
    const std::vector<seq::BandEntry>& entries) const {
  // The exact recount (unmasked shared codes) is a pure pair function and
  // the pair already passed it when its edge was admitted, so only the
  // band-collision threshold can revoke candidacy.
  const align::LshSeedConfig& cfg = config_.graph.lsh;
  const seq::BandLayout layout{cfg.num_bands, cfg.rows_per_band};
  const u64 width = layout.width();
  const std::span<const u64> sig_a =
      std::span<const u64>(signatures).subspan(a * width, width);
  const std::span<const u64> sig_b =
      std::span<const u64>(signatures).subspan(b * width, width);
  if (sig_a.front() == seq::kEmptySketchSlot ||
      sig_b.front() == seq::kEmptySketchSlot) {
    return false;
  }
  u32 band_hits = 0;
  for (u64 band = 0; band < cfg.num_bands; ++band) {
    const u64 key = seq::band_key(layout, sig_a, band);
    if (key != seq::band_key(layout, sig_b, band)) continue;
    const std::size_t occupancy = seq::band_bucket(entries, band, key).size();
    if (occupancy >= 2 && occupancy <= cfg.max_bucket_size) {
      if (++band_hits >= cfg.min_band_hits) return true;
    }
  }
  return false;
}

IngestBatchStats IngestSession::ingest(const seq::SequenceSet& batch) {
  IngestBatchStats stats;
  stats.num_new_sequences = batch.size();
  if (batch.empty()) return stats;
  const std::size_t first_new = sequences_.size();
  const std::size_t n = first_new + batch.size();
  GPCLUST_CHECK(n <= 0xffffffffull, "sequence ids overflow u32");
  const bool lsh = config_.graph.seed_mode == align::SeedMode::MinHashLsh;
  if (lsh && !sketch_hashes_) {
    sketch_hashes_.emplace(
        config_.graph.lsh.num_bands * config_.graph.lsh.rows_per_band,
        config_.graph.lsh.seed);
  }

  sequences_.insert(sequences_.end(), batch.begin(), batch.end());
  SequenceRollback rollback{sequences_, first_new};

  // Stage 1 (incremental): merge the batch into the standing index and
  // emit new-involving candidates + dirtied old-old pairs. All staging
  // lands in locals; members mutate only at commit.
  util::WallTimer seed_timer;
  SeedOutput seed;
  {
    obs::HostSpan span(config_.tracer, "ingest.seed");
    seed = lsh ? incremental_seed_lsh(first_new)
               : incremental_seed_kmer(first_new);
  }
  stats.seed_host_s = seed_timer.seconds();
  stats.num_candidate_pairs = seed.pairs.size();
  stats.num_dirty_pairs = seed.dirty_keys.size();
  obs::add_counter(config_.tracer, "ingest_candidate_pairs",
                   seed.pairs.size());

  // Revocation: a dirtied pair that is a standing edge keeps it iff it is
  // still a candidate of the post-batch input (its verify verdict is pure,
  // so candidacy is the only thing masking can take away).
  std::vector<graph::Edge> revoked;
  for (const u64 key : seed.dirty_keys) {
    const graph::Edge e{static_cast<u32>(key >> 32),
                        static_cast<u32>(key & 0xffffffffu)};
    if (!std::binary_search(edges_.begin(), edges_.end(), e)) continue;
    const bool keep = lsh ? still_candidate_lsh(e.u, e.v, signatures_,
                                                seed.merged_entries)
                          : still_candidate_kmer(e.u, e.v,
                                                 seed.merged_postings);
    if (!keep) revoked.push_back(e);
  }
  stats.num_revoked_edges = revoked.size();
  obs::add_counter(config_.tracer, "ingest_revoked_edges", revoked.size());

  // Stages 2 + 3: the unchanged cascade over just the new candidates.
  util::WallTimer verify_timer;
  std::vector<u8> accepted;
  {
    obs::HostSpan span(config_.tracer, "ingest.verify");
    accepted = align::verify_candidate_pairs(sequences_, seed.pairs,
                                             config_.graph, &stats.verify);
  }
  stats.verify_host_s = verify_timer.seconds();

  // Updated edge set: standing minus revoked, plus accepted. New-involving
  // edges have their larger endpoint >= first_new while standing edges do
  // not, so the two sorted runs merge without deduplication.
  std::vector<graph::Edge> added;
  for (std::size_t i = 0; i < seed.pairs.size(); ++i) {
    if (accepted[i]) added.push_back({seed.pairs[i].a, seed.pairs[i].b});
  }
  stats.num_accepted_edges = added.size();
  std::vector<graph::Edge> kept;
  kept.reserve(edges_.size() - revoked.size());
  std::set_difference(edges_.begin(), edges_.end(), revoked.begin(),
                      revoked.end(), std::back_inserter(kept));
  std::vector<graph::Edge> updated;
  updated.reserve(kept.size() + added.size());
  std::merge(kept.begin(), kept.end(), added.begin(), added.end(),
             std::back_inserter(updated));

  // Scoped re-cluster: components touched by an edge change or a new
  // vertex are re-shingled on the full vertex-id universe (shingle hashes
  // are functions of original vertex ids, so the scoped pass reproduces
  // the from-scratch clusters of those components bit-for-bit); untouched
  // standing clusters splice through. Every fragment of a changed
  // component contains an endpoint of a changed edge, so first-member
  // tests classify whole clusters soundly.
  util::WallTimer recluster_timer;
  std::vector<std::vector<VertexId>> next_clusters;
  {
    obs::HostSpan span(config_.tracer, "ingest.recluster");
    graph::UnionFind uf(n);
    for (const graph::Edge& e : updated) uf.unite(e.u, e.v);
    std::vector<u8> touched_root(n, 0);
    for (std::size_t v = first_new; v < n; ++v) touched_root[uf.find(v)] = 1;
    for (const graph::Edge& e : revoked) {
      touched_root[uf.find(e.u)] = 1;
      touched_root[uf.find(e.v)] = 1;
    }
    for (const graph::Edge& e : added) touched_root[uf.find(e.u)] = 1;

    graph::EdgeList scoped(n);
    for (const graph::Edge& e : updated) {
      if (touched_root[uf.find(e.u)]) scoped.add(e.u, e.v);
    }
    const core::Clustering reclustered =
        cluster_graph(graph::CsrGraph::from_edge_list(std::move(scoped)));

    for (const auto& cluster : clusters_) {
      if (!touched_root[uf.find(cluster.front())]) {
        next_clusters.push_back(cluster);
      }
    }
    for (const auto& cluster : reclustered.clusters()) {
      if (touched_root[uf.find(cluster.front())]) {
        next_clusters.push_back(cluster);
      }
    }
    std::sort(next_clusters.begin(), next_clusters.end(),
              [](const std::vector<VertexId>& x,
                 const std::vector<VertexId>& y) {
                return x.front() < y.front();
              });

    stats.num_components = uf.num_sets();
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t root = uf.find(v);
      if (touched_root[root]) {
        ++stats.num_touched_vertices;
        if (root == v) ++stats.num_touched_components;
      }
    }
    stats.touched_fraction =
        static_cast<double>(stats.num_touched_vertices) /
        static_cast<double>(n);
  }
  stats.recluster_host_s = recluster_timer.seconds();
  obs::add_counter(config_.tracer, "ingest_touched_vertices",
                   stats.num_touched_vertices);

  // Safety net for the splice: the merged clusters must partition [0, n).
  std::size_t members = 0;
  for (const auto& cluster : next_clusters) members += cluster.size();
  GPCLUST_CHECK(members == n, "spliced clusters do not partition the input");

  // Commit.
  clusters_ = std::move(next_clusters);
  edges_ = std::move(updated);
  if (lsh) {
    entries_ = std::move(seed.merged_entries);
    signatures_.insert(signatures_.end(), seed.new_signatures.begin(),
                       seed.new_signatures.end());
  } else {
    postings_ = std::move(seed.merged_postings);
  }
  rollback.committed = true;
  last_store_.reset();
  return stats;
}

store::SnapshotDelta IngestSession::ingest_with_delta(
    const seq::SequenceSet& batch, u64 chain_index, IngestBatchStats* stats) {
  store::FamilyStore base =
      last_store_ ? std::move(*last_store_) : this->store();
  last_store_.reset();
  IngestBatchStats batch_stats = ingest(batch);
  store::FamilyStore next = this->store();
  store::SnapshotDelta delta =
      store::build_snapshot_delta(base, next, chain_index);
  last_store_ = std::move(next);
  if (stats != nullptr) *stats = batch_stats;
  return delta;
}

}  // namespace gpclust::ingest
