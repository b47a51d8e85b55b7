#include "dist/term_map.h"

#include <utility>

#include "rdf/vocabulary.h"
#include "util/logging.h"

namespace sedge::dist {

namespace {

using store::EncodedTerm;
using store::ValueSpace;

/// Decodes a shard-local value against that shard's frozen store. Only
/// spaces a shard subquery can produce: the persisted spaces plus
/// kRdfType (a variable predicate matched against the type layout).
/// kComputed never crosses the wire — BINDs are evaluated at the
/// coordinator, never pushed down.
rdf::Term DecodeShardValue(const store::TripleStore& store,
                           const EncodedTerm& value) {
  if (value.space == ValueSpace::kRdfType) {
    return rdf::Term::Iri(rdf::kRdfType);
  }
  SEDGE_CHECK(value.space != ValueSpace::kComputed &&
              value.space != ValueSpace::kUnbound)
      << "unexpected runtime-only space in a shard binding";
  return store.DecodeTerm(value);
}

}  // namespace

TermMap::TermMap(int num_shards)
    : shards_(static_cast<size_t>(num_shards)) {}

uint64_t TermMap::InternTermLocked(const rdf::Term& term) {
  const auto it = ids_.find(term);
  if (it != ids_.end()) return it->second;
  const uint64_t gid = terms_.size();
  terms_.push_back(term);
  ids_.emplace(term, gid);
  return gid;
}

uint64_t TermMap::InternTerm(const rdf::Term& term) {
  {
    util::ReaderMutexLock lk(&mu_);
    const auto it = ids_.find(term);
    if (it != ids_.end()) return it->second;
  }
  util::WriterMutexLock lk(&mu_);
  return InternTermLocked(term);
}

rdf::Term TermMap::TermOf(uint64_t gid) const {
  util::ReaderMutexLock lk(&mu_);
  SEDGE_CHECK(gid < terms_.size()) << "unknown global term id";
  return terms_[gid];
}

uint64_t TermMap::MapShardValue(int shard, uint64_t shard_generation,
                                const store::TripleStore& store,
                                const EncodedTerm& value) {
  const auto space = static_cast<size_t>(value.space);
  SEDGE_CHECK(space < kNumSpaces);
  {
    util::ReaderMutexLock lk(&mu_);
    const ShardCache& cache = shards_[static_cast<size_t>(shard)];
    if (cache.initialized && cache.generation == shard_generation) {
      const auto it = cache.ids[space].find(value.id);
      if (it != cache.ids[space].end()) return it->second;
    }
  }
  // Decode outside the lock: the snapshot is frozen and the decode may
  // walk succinct structures — no reason to hold up other mappers.
  const rdf::Term term = DecodeShardValue(store, value);
  util::WriterMutexLock lk(&mu_);
  ShardCache& cache = shards_[static_cast<size_t>(shard)];
  if (!cache.initialized || cache.generation < shard_generation) {
    // Re-encode epoch: the shard's compaction swap renumbered every id.
    // Stale-generation entries must not survive; global terms do (ids
    // are content-keyed and shard-independent). Refresh only moves
    // forward — a query still pinned to an older snapshot (below) must
    // not wipe the cache newer queries just filled.
    if (cache.initialized) {
      for (auto& m : cache.ids) m.clear();
      refreshes_.fetch_add(1);
    }
    cache.initialized = true;
    cache.generation = shard_generation;
  }
  const uint64_t gid = InternTermLocked(term);
  if (cache.generation == shard_generation) {
    cache.ids[space].emplace(value.id, gid);
  }
  return gid;
}

uint64_t TermMap::size() const {
  util::ReaderMutexLock lk(&mu_);
  return terms_.size();
}

}  // namespace sedge::dist
