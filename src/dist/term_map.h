// dist::TermMap — the coordinator's global term dictionary and the
// shard-local → global id reconciliation layer.
//
// Every shard is a full Database that admits vocabulary independently
// (PR-5 provisional schema registry) and re-encodes its LiteMat ids at
// each compaction, so the same IRI generally has a *different* encoded id
// on every shard — and a different id on the same shard after a fold.
// Partial bindings can therefore only be joined at the coordinator in a
// shard-independent id space. TermMap provides it:
//
//   - a global dictionary rdf::Term ↔ dense uint64 global id, grown on
//     demand (terms are interned by decoded content, so the same IRI or
//     literal maps to one global id no matter which shard produced it —
//     that equality is exactly the join key a single store would use);
//   - one cache per shard mapping (ValueSpace, shard-local id) → global
//     id, keyed on the shard's StoreGeneration::number(). A compaction
//     swap re-encodes ids and bumps the number, so the first value mapped
//     against the new generation drops the stale cache wholesale — the
//     re-encode epoch refresh. Within one generation ids are stable
//     (provisional admissions and delta-pool positions are append-only
//     along the fork lineage), so caching is sound.
//
// Thread safety: internally synchronized with one util::SharedMutex
// (docs/locking.md: a leaf — the critical sections only touch the maps;
// shard-store decodes run outside the lock against frozen snapshots).

#ifndef SEDGE_DIST_TERM_MAP_H_
#define SEDGE_DIST_TERM_MAP_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"
#include "store/encoded.h"
#include "store/triple_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sedge::dist {

/// \brief Global term dictionary + per-shard id reconciliation caches.
class TermMap {
 public:
  explicit TermMap(int num_shards);

  /// Interns `term`, returning its global id (stable for the map's
  /// lifetime).
  uint64_t InternTerm(const rdf::Term& term) SEDGE_EXCLUDES(mu_);

  /// Decodes a global id back to its term. Precondition: `gid` was
  /// returned by InternTerm/MapShardValue.
  rdf::Term TermOf(uint64_t gid) const SEDGE_EXCLUDES(mu_);

  /// Maps one shard-local binding value to a global id, decoding through
  /// `store` (the pinned snapshot the value came from) on cache misses.
  /// `shard_generation` is that snapshot's StoreGeneration::number(); a
  /// newer number than the cached one refreshes (clears) the shard's
  /// cache — the re-encode epoch protocol. `value` must be bound.
  uint64_t MapShardValue(int shard, uint64_t shard_generation,
                         const store::TripleStore& store,
                         const store::EncodedTerm& value)
      SEDGE_EXCLUDES(mu_);

  /// Distinct terms interned so far.
  uint64_t size() const SEDGE_EXCLUDES(mu_);

  /// Shard-cache refreshes triggered by re-encode epochs (the very first
  /// fill of a shard's cache does not count).
  uint64_t refreshes() const { return refreshes_.load(); }

 private:
  static constexpr size_t kNumSpaces = 8;  // covers every ValueSpace

  struct ShardCache {
    bool initialized = false;
    uint64_t generation = 0;
    /// (space, shard-local id) → global id, one map per value space.
    std::array<std::unordered_map<uint64_t, uint64_t>, kNumSpaces> ids;
  };

  uint64_t InternTermLocked(const rdf::Term& term) SEDGE_REQUIRES(mu_);

  mutable util::SharedMutex mu_;
  std::unordered_map<rdf::Term, uint64_t, rdf::TermHash> ids_
      SEDGE_GUARDED_BY(mu_);
  std::vector<rdf::Term> terms_ SEDGE_GUARDED_BY(mu_);
  std::vector<ShardCache> shards_ SEDGE_GUARDED_BY(mu_);
  std::atomic<uint64_t> refreshes_{0};
};

}  // namespace sedge::dist

#endif  // SEDGE_DIST_TERM_MAP_H_
