#pragma once
/// \file subtree_cache.hpp
/// Sharded LRU cache of per-subtree bottom-up fronts.
///
/// The bottom-up engines are compositional: the pruned front C^P_U(v) of
/// a node depends only on the decorated subtree below v and the pruning
/// budget.  This cache memoizes those fronts *across solves and across
/// models*: entries are keyed by a canonical subtree fingerprint that is
/// invariant under node renaming and child reordering, so two distinct
/// models sharing an isomorphic subtree (analysts copying library
/// components, edit sessions re-solving after a local change) reuse each
/// other's work.
///
/// Keying.  Treelike subtrees admit an exact canonical form with no WL
/// refinement: a Merkle-style signature built bottom-up with child
/// signatures sorted (service/canon.hpp's machinery is for whole DAGs;
/// the bottom-up engines only run on trees).  The signature embeds node
/// types and all decorations bit-exactly — cost, damage, and success
/// probability, with the deterministic sweep's implicit p = 1 spelled
/// out so deterministic models and all-ones probabilistic models share
/// entries, exactly mirroring core/bottom_up_core.hpp's embedding.  The
/// cache key is a 64-bit hash of the signature plus the pruning budget
/// (budget pruning makes fronts budget-dependent); every entry retains
/// its full signature and lookups deep-check it, so a hash collision
/// costs a miss, never a wrong front.
///
/// Witnesses.  Cached witnesses live in a canonical subtree-local leaf
/// space (leaves in signature-sorted child order).  A Binding translates
/// them to/from the host model's BAS indexing; between isomorphic
/// subtrees the canonical order maps decoration-identical leaves onto
/// each other, so a translated witness evaluates to exactly the cached
/// (cost, damage, activation) values in its new host.
///
/// Unlike ResultCache, entries retain only the signature string and the
/// local fronts — never the model — so enabling both caches on one
/// BatchOptions counts every byte exactly once (each cache accounts its
/// own storage; tests/test_subtree_cache.cpp asserts the additivity).

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/batch.hpp"
#include "obs/metrics.hpp"

namespace atcd::service {

/// Merkle fingerprint of a finalized *treelike* decorated model — the
/// hash the subtree cache keys the model's root entry on.  Invariant
/// under renaming and child reordering (children fold in sorted-hash
/// order) and sensitive to all decorations; an order of magnitude
/// cheaper than canon.hpp's WL canonical_hash, which handles DAGs.
/// Returns 0 for non-treelike models.  \p prob null means deterministic
/// (hashed as all-ones, mirroring the bottom-up embedding).
std::uint64_t treelike_fingerprint(const AttackTree& tree,
                                   const std::vector<double>& cost,
                                   const std::vector<double>& damage,
                                   const std::vector<double>* prob);

/// Incremental treelike_fingerprint(): \p node_hash / \p node_valid
/// persist across calls (resized here on first use or structural
/// change), and only nodes with a cleared validity bit are rehashed.
/// The caller must clear the bit of every node whose decorations (or
/// descendants) changed *and of all its ancestors* — exactly the
/// root-path walk session edits already do for the front memo.  Returns
/// the root hash, identical to treelike_fingerprint() on the same model.
std::uint64_t treelike_fingerprint_update(
    const AttackTree& tree, const std::vector<double>& cost,
    const std::vector<double>& damage, const std::vector<double>* prob,
    std::vector<std::uint64_t>* node_hash, std::vector<char>* node_valid);

/// The model fingerprint used uniformly across the serving layer — by
/// the result-cache key, one-shot responses, and session responses — so
/// a response's "hash" field identifies a model consistently no matter
/// which path served it: the Merkle fingerprint for treelike models
/// (fast path), canon.hpp's WL canonical_hash for DAGs.  Both are
/// isomorphism-invariant; consumers that need exactness still deep-check
/// with equal_canonical() (the cache does).
std::uint64_t model_fingerprint(const CdAt& m);
std::uint64_t model_fingerprint(const CdpAt& m);

/// Thread-safe, sharded, byte- and entry-budgeted subtree front cache.
/// Implements engine::SubtreeMemo, so it attaches directly to
/// engine::BatchOptions::subtree (and through it to the solve service
/// and incremental sessions).
class SubtreeCache final : public engine::SubtreeMemo {
 public:
  struct Config {
    std::size_t shards = 8;             ///< mutex stripes; >= 1
    std::size_t max_entries = 65536;    ///< whole-cache entry budget
    std::size_t max_bytes = 64u << 20;  ///< whole-cache byte budget
    /// Subtrees with fewer leaves are not cached: their fronts are
    /// cheaper to recompute than to look up and remap.
    std::size_t min_leaves = 2;
    /// Home for the cache's counters (atcd_subtree_cache_*).  Null = a
    /// private registry (standalone instances stay isolated).
    obs::Registry* metrics = nullptr;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;   ///< entries dropped by LRU/budget
    std::uint64_t collisions = 0;  ///< equal-key probes failing the deep check
    std::size_t entries = 0;       ///< current resident entries
    std::size_t bytes = 0;         ///< current approximate resident bytes
  };

  SubtreeCache();  // default Config (GCC can't parse `= {}` here)
  explicit SubtreeCache(Config config);

  /// engine::SubtreeMemo: binds a visitor to (model, budget).  Returns
  /// nullptr for non-treelike or unfinalized models (the bottom-up
  /// engines reject those anyway).
  std::unique_ptr<atcd::detail::SubtreeVisitor> bind(const CdAt& m,
                                                     double budget) override;
  std::unique_ptr<atcd::detail::SubtreeVisitor> bind(const CdpAt& m,
                                                     double budget) override;

  /// Decomposed form of bind(); \p prob may be null (deterministic).
  std::unique_ptr<atcd::detail::SubtreeVisitor> bind(
      const AttackTree& tree, const std::vector<double>& cost,
      const std::vector<double>& damage, const std::vector<double>* prob,
      double budget);

  Stats stats() const;
  void clear();

  std::size_t shard_count() const { return shards_.size(); }

  /// One resident entry in snapshot form (src/persist/): the key
  /// components, the full canonical signature, and the local-space
  /// front.  Byte bookkeeping is not exported — restore recomputes it.
  struct ExportedEntry {
    std::uint64_t hash = 0;
    double budget = 0.0;
    std::shared_ptr<const std::string> sig;
    std::shared_ptr<const std::vector<AttrTriple>> front;
  };

  /// Every resident entry, shard by shard, least-recently-used first
  /// within each shard — replaying the list through restore_entry()
  /// into an empty cache reproduces contents and recency order, and
  /// into a smaller cache evicts exactly the least recent entries.
  std::vector<ExportedEntry> export_entries() const;

  /// Re-inserts one exported entry through the normal put() path: the
  /// entry lands at MRU of its shard, budgets are enforced (over-budget
  /// loads evict in LRU order), and bytes are recomputed from scratch.
  void restore_entry(std::uint64_t hash, double budget,
                     const std::string& sig, std::vector<AttrTriple> front);

 private:
  friend class SubtreeBinding;

  struct Key {
    std::uint64_t hash = 0;   ///< signature hash
    double budget = 0.0;      ///< normalized pruning budget (inf = none)
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const;
  };

  struct Entry {
    Key key;
    /// Full canonical signature — the collision guard.  Shared immutable
    /// (like `front`) so lookups can run the deep check outside the
    /// shard lock even if the entry is evicted concurrently.
    std::shared_ptr<const std::string> sig;
    /// The subtree's pruned front; witnesses over the canonical local
    /// leaf space (size = subtree leaf count).
    std::shared_ptr<const std::vector<AttrTriple>> front;
    std::size_t bytes = 0;
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHasher> index;
    std::size_t bytes = 0;  ///< resident bytes; guarded by mu
  };

  Shard& shard_of(const Key& key);

  /// Returns the entry's front when the key is present and the signature
  /// deep check passes; counts hit/miss/collision.  \p sig_of is invoked
  /// only when the key is present — signature materialization is lazy,
  /// which is what keeps warm re-solves cheap.
  std::shared_ptr<const std::vector<AttrTriple>> find(
      const Key& key, const std::function<const std::string&()>& sig_of);

  /// Inserts a front (local witness space); keeps the incumbent on an
  /// equal-key entry (refreshing recency when the signature matches,
  /// counting a collision otherwise).
  void put(const Key& key, const std::string& sig,
           std::vector<AttrTriple> front);

  /// Drops LRU-tail entries until the shard is within both budgets.
  /// Caller holds the shard lock.
  void evict_to_budget(Shard& shard);

  Config config_;
  std::size_t entry_budget_per_shard_;
  std::size_t byte_budget_per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Registry-backed counters (see Config::metrics); resolved once at
  // construction so hot-path counting is a single sharded relaxed add.
  std::unique_ptr<obs::Registry> owned_metrics_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* insertions_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* collisions_ = nullptr;
};

/// Chains two memo layers: lookups consult \p primary first, then
/// \p fallback — promoting fallback hits into primary — and stores feed
/// both.  Sessions use this to layer their private per-session memo over
/// the service's shared cross-session cache.  Either layer may be null.
class ChainedSubtreeMemo final : public engine::SubtreeMemo {
 public:
  ChainedSubtreeMemo(engine::SubtreeMemo* primary,
                     engine::SubtreeMemo* fallback)
      : primary_(primary), fallback_(fallback) {}

  std::unique_ptr<atcd::detail::SubtreeVisitor> bind(const CdAt& m,
                                                     double budget) override;
  std::unique_ptr<atcd::detail::SubtreeVisitor> bind(const CdpAt& m,
                                                     double budget) override;

 private:
  std::unique_ptr<atcd::detail::SubtreeVisitor> chain(
      std::unique_ptr<atcd::detail::SubtreeVisitor> a,
      std::unique_ptr<atcd::detail::SubtreeVisitor> b);

  engine::SubtreeMemo* primary_;
  engine::SubtreeMemo* fallback_;
};

}  // namespace atcd::service
