#pragma once
/// \file cache.hpp
/// Sharded LRU result cache for the solve service.
///
/// Entries are keyed by (canonical model hash, problem, bound, backend):
/// the canonical hash (service/canon.hpp) makes renamed / child-permuted
/// resubmissions of the same model collide on purpose, the bound is
/// normalized to 0 for the front problems (which ignore it), and the
/// backend component is the *requested* engine name ("" for planner
/// auto-selection) so an explicit engine override never serves another
/// engine's result.
///
/// Because a 64-bit canonical hash can collide, every entry retains a
/// copy of its model and lookups deep-check it with equal_canonical();
/// a mismatch is counted as a collision and served as a miss — a
/// colliding model can cost a cache miss but never a wrong answer.
///
/// The cache is mutex-striped into N independent shards (shard chosen by
/// key hash); each shard runs its own LRU list under its own lock with
/// 1/N of the global entry and byte budgets, so concurrent lookups from
/// the batch workers contend only when they land on the same shard.
///
/// Served solves (SolveService::handle()) and snapshot loads are the
/// only writers.  Analysis fan-outs and sessions solve around the cache,
/// so a request that derives thousands of scenarios cannot evict the
/// models other clients are being served from.
///
/// Exact-bytes aliases.  A canonical hit pays for parsing the model
/// text, hashing it, the isomorphism deep check, and (in the API layer)
/// rendering the witnesses.  After such a hit the caller may attach an
/// ExactAlias to the entry: the request's model text, verbatim, plus the
/// witnesses already rendered in that text's BAS indexing.  A later
/// request with byte-identical text and equal (problem, normalized
/// bound, backend) is then answered by lookup_exact() from a hash of the
/// text, confirmed by byte equality — never by parsing.  Aliases are
/// derived state: they are charged to their entry's bytes (and so to the
/// shard's byte budget), dropped with the entry on eviction or clear(),
/// never attached on a miss or insert, and never exported to snapshots.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/batch.hpp"
#include "obs/metrics.hpp"
#include "service/canon.hpp"

namespace atcd::service {

/// Cache key; see the file comment for the semantics of each component.
struct CacheKey {
  CanonHash model = 0;
  engine::Problem problem = engine::Problem::Cdpf;
  double bound = 0.0;    ///< 0 for front problems (they ignore it)
  std::string backend;   ///< requested engine name; "" = auto

  bool operator==(const CacheKey&) const = default;
};

/// Hash over all key components (model hash, problem, bound, backend).
std::size_t hash_of(const CacheKey& key);

/// Functor form of hash_of for unordered containers keyed by CacheKey.
struct CacheKeyHasher {
  std::size_t operator()(const CacheKey& key) const { return hash_of(key); }
};

/// The bound component of a key: 0 for the front problems (they ignore
/// the bound), the bound itself otherwise.
inline double key_bound(engine::Problem problem, double bound) {
  return engine::is_front(problem) ? 0.0 : bound;
}

/// Builds the key for an instance: computes the canonical model hash and
/// normalizes the bound.  Returns nullopt when the instance's model/
/// problem pairing is invalid, or when a bound-using problem carries a
/// non-finite bound (NaN never compares equal, so such keys could
/// neither be found again nor evicted) — either way the instance
/// bypasses the cache.
std::optional<CacheKey> make_key(const engine::Instance& in);

/// Rewrites the witness bitsets of \p result from model \p from's BAS
/// indexing to model \p to's, through the node bijection \p iso as
/// returned by canonical_isomorphism(from, to).  Costs and damages are
/// untouched (the models are isomorphic, so they transfer verbatim);
/// only which BAS index denotes which leaf changes.  No-op when the
/// bijection preserves BAS indices.
void remap_witnesses(const AttackTree& from, const AttackTree& to,
                     const std::vector<NodeId>& iso,
                     engine::SolveResult* result);

class ResultCache {
 public:
  struct Config {
    std::size_t shards = 8;              ///< mutex stripes; >= 1
    std::size_t max_entries = 4096;      ///< whole-cache entry budget
    std::size_t max_bytes = 64u << 20;   ///< whole-cache byte budget
    /// Home for the cache's counters (atcd_result_cache_*).  Null = the
    /// cache keeps a private registry, so standalone instances stay
    /// isolated; the service injects its own so all layers share one.
    obs::Registry* metrics = nullptr;
  };

  /// Derived per-text state of an entry; see the file comment.
  /// Immutable once published by attach_exact().
  struct ExactAlias {
    std::uint64_t hash = 0;  ///< digest of (key problem/bound/backend, text)
    CacheKey key;            ///< the owning entry's key
    std::string text;        ///< the model text, compared byte for byte
    /// The owning entry's result.  Only its values, order and backend
    /// are served from here: remapping a hit into this text's BAS
    /// indexing changes nothing but the witnesses, and those are
    /// carried below, already rendered.
    std::shared_ptr<const engine::SolveResult> result;
    /// Rendered witnesses in the text's BAS indexing: one per front
    /// point for the front problems, else one for a feasible attack.
    std::vector<std::string> witnesses;
  };

  /// At most this many aliases per entry; attaching another replaces
  /// the oldest.
  static constexpr std::size_t kMaxAliasesPerEntry = 8;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;   ///< entries dropped by LRU/budget
    std::uint64_t collisions = 0;  ///< equal-key lookups failing the deep check
    std::size_t entries = 0;       ///< current resident entries
    std::size_t bytes = 0;         ///< current approximate resident bytes
  };

  ResultCache();  // default Config (GCC can't parse `= {}` here)
  explicit ResultCache(Config config);

  // -- Key-level API (the service computes the canonical hash once). ----

  /// Returns the cached result for \p key, deep-checking the entry's
  /// retained model against the probe model (exactly one of det/prob
  /// non-null, matching the key's problem).  Counts a hit, miss, or
  /// collision; pass count_stats=false for a re-check of a request whose
  /// first lookup already counted (each request contributes exactly one
  /// hit-or-miss to the counters).
  std::optional<engine::SolveResult> lookup(const CacheKey& key,
                                            const CdAt* det,
                                            const CdpAt* prob,
                                            bool count_stats = true);

  /// Inserts a successful result, retaining shared ownership of the model
  /// for the collision deep check.  An equal-key entry for a *different*
  /// model (a true hash collision) keeps the incumbent; an equal-key
  /// entry for the same model is refreshed.  Entries larger than a whole
  /// shard's byte budget are not stored.
  void insert(const CacheKey& key, std::shared_ptr<const CdAt> det,
              std::shared_ptr<const CdpAt> prob,
              const engine::SolveResult& result);

  // -- Exact-bytes aliases (see the file comment). ------------------------

  /// The alias whose text is byte-identical to \p text under the same
  /// problem, bound (normalized as in make_key) and backend, or null.
  /// A non-null return counts as a hit (and an exact hit) and refreshes
  /// the entry's recency; a null return counts nothing — the caller's
  /// canonical lookup counts that request.
  std::shared_ptr<const ExactAlias> lookup_exact(engine::Problem problem,
                                                 double bound,
                                                 const std::string& backend,
                                                 const std::string& text);

  /// Attaches an alias for \p text to the resident entry under \p key.
  /// Call only after a canonical hit on \p key for that text, with the
  /// result it \p served and that result's \p witnesses rendered in the
  /// text's BAS indexing.  A no-op when the entry is gone or no longer
  /// holds the served values, already holds one for this text, or the
  /// alias would not fit the shard's byte budget.  An entry holding
  /// kMaxAliasesPerEntry aliases drops its oldest to take this one.
  void attach_exact(const CacheKey& key, const std::string& text,
                    const engine::SolveResult& served,
                    std::vector<std::string> witnesses);

  Stats stats() const;
  void clear();

  std::size_t shard_count() const { return shards_.size(); }
  /// Which shard a key lands on — exposed so tests can craft per-shard
  /// workloads.
  std::size_t shard_index(const CacheKey& key) const;

  /// One resident entry in snapshot form (src/persist/): the key, the
  /// retained model (exactly one of det/prob), and the cached result.
  /// Byte bookkeeping is not exported — insert() recomputes it.
  struct ExportedEntry {
    CacheKey key;
    std::shared_ptr<const CdAt> det;
    std::shared_ptr<const CdpAt> prob;
    std::shared_ptr<const engine::SolveResult> result;
  };

  /// Every resident entry, shard by shard, least-recently-used first
  /// within each shard — replaying the list through insert() into an
  /// empty cache reproduces both the contents and the LRU recency
  /// order (so a snapshot round-trips byte-identically), and into a
  /// smaller cache evicts exactly the least recent entries.
  std::vector<ExportedEntry> export_entries() const;

 private:
  /// Model and result are shared immutable so lookups can release the
  /// shard lock before the isomorphism deep check and witness remap.
  struct Entry {
    CacheKey key;
    std::shared_ptr<const CdAt> det;
    std::shared_ptr<const CdpAt> prob;
    std::shared_ptr<const engine::SolveResult> result;
    std::vector<std::shared_ptr<const ExactAlias>> aliases;
    std::size_t bytes = 0;  ///< includes the aliases
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHasher>
        index;
    std::size_t bytes = 0;  ///< resident bytes; guarded by mu
  };

  /// The exact-alias index, striped by alias hash independently of the
  /// entry shards (a probe cannot know the canonical key).  Lock order:
  /// an entry shard, then a stripe — never the reverse.
  struct AliasStripe {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::shared_ptr<const ExactAlias>>
        index;
  };

  /// Drops LRU-tail entries until the shard is within both budgets.
  /// Caller holds the shard lock.
  void evict_to_budget(Shard& shard);
  /// Unpublishes \p e's aliases from the index.  Caller holds e's shard
  /// lock.
  void drop_aliases(const Entry& e);
  /// Removes \p a from the index if it is still the published alias for
  /// its hash.
  void unpublish(const std::shared_ptr<const ExactAlias>& a);
  AliasStripe& stripe_of(std::uint64_t alias_hash) const;

  Config config_;
  std::size_t entry_budget_per_shard_;
  std::size_t byte_budget_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<AliasStripe>> stripes_;

  // Registry-backed counters (see Config::metrics); resolved once at
  // construction so hot-path counting is a single sharded relaxed add.
  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* insertions_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* collisions_ = nullptr;
  obs::Counter* exact_hits_ = nullptr;
};

}  // namespace atcd::service
