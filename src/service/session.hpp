#pragma once
/// \file session.hpp
/// Incremental model-edit sessions.
///
/// Real solve traffic is dominated by near-duplicates: an analyst tweaks
/// one cost, swaps a subtree, toggles a defense, and re-solves.  A
/// Session keeps the parsed model *and* per-node memo state alive
/// between requests, so a re-solve after a local edit only recomputes
/// the nodes on the edited leaf's root-path.
///
/// Two memo layers cooperate:
///
///  * A private NodeId-keyed memo: every node's last pruned front plus a
///    validity bit.  Edits invalidate exactly the edited node's
///    root-path (O(depth), the tree structure is stable), and the next
///    resolve pulls every still-valid subtree straight from the memo —
///    no hashing, no witness translation.  Structural edits
///    (replace-subtree) reset it.
///  * Optionally, a SubtreeCache (Options::shared): fronts computed by
///    this session become reusable by whoever else binds that cache —
///    and after a structural edit, unchanged subtrees can be *re*-covered
///    from it by canonical hash even though their NodeIds moved.  No
///    served path sets it: API sessions and analysis sweeps keep only
///    the private memo, so a session's fronts are freed when it closes.
///
/// Both layers implement the arena sweep's memo protocol
/// (detail::SubtreeVisitor: one lookup and one store over SoA views).
/// ChainedSubtreeMemo puts the shared cache under the private memo and
/// promotes the shared cache's hits into it.
///
/// Edits mutate *base* decorations; `toggle-defense` flips a BAS's
/// hardened flag, and every effective cost and probability comes from
/// the one hardening rule (defense::hardened_cost / hardened_prob, the
/// rule analysis portfolios use too), so resolve() solves the resulting
/// effective model.  The
/// incremental fast path engages whenever the planner (or the explicit
/// engine choice) lands on an incremental-capable backend
/// (engine::Capabilities::incremental — bottom-up on treelike models);
/// otherwise resolve() transparently falls back to a full solve, so
/// sessions work on every model class the engines support.  The
/// fallback's backend binds no memo, so it neither reads nor feeds
/// either layer.
///
/// Responses hand out the current model snapshot by shared pointer;
/// the first edit after a snapshot left the session copy-on-writes the
/// model, so resolve() does no per-call model copy and snapshots stay
/// immutable.
///
/// All methods are thread-safe (one mutex per session); a session's
/// resolve path never throws — failures surface as ok=false responses,
/// failed edits change nothing and return a message.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "defense/defense.hpp"
#include "obs/metrics.hpp"
#include "pareto/front_soa.hpp"
#include "service/service.hpp"
#include "service/subtree_cache.hpp"

namespace atcd::service {

class Session {
 public:
  struct Options {
    engine::Problem problem = engine::Problem::Cdpf;
    double bound = 0.0;        ///< budget/threshold; ignored by the fronts
    std::string engine_name;   ///< explicit engine; "" = planner's choice
    /// Registry/policy for the solve path; its subtree hook is ignored
    /// (the session supplies its own memo chain).
    engine::BatchOptions batch;
    /// Optional subtree cache layered under the private memo: fronts
    /// computed here become visible to everyone else bound to it, and
    /// vice versa.  Null (the API's sessions) = the private memo only.
    SubtreeCache* shared = nullptr;
    /// toggle-defense hardening (defense.hpp's rule; a defended
    /// zero-cost BAS is charged the bare factor).  Sessions default to a
    /// larger cost factor than analyses; analysis sweeps pass theirs.
    defense::HardeningSemantics hardening{1e9, 0.0};
    /// When false, responses carry no model snapshot (Response::det /
    /// Response::prob stay null).  Handing out a snapshot forces the
    /// next edit to copy-on-write the whole model — O(#nodes), which
    /// dwarfs the O(depth) incremental re-solve itself on edit-resolve
    /// loops.  Drivers that only consume Response::result (the analysis
    /// sweeps) turn this off and keep edits allocation-free.
    bool snapshots = true;
    /// Home for the session memo counters (atcd_session_memo_*_total);
    /// null = the session counts only in its private MemoStats.  The
    /// dispatcher passes its registry so session traffic shows up in
    /// the `metrics` op alongside the cache layers.
    obs::Registry* metrics = nullptr;
  };

  /// Private-memo counters (the shared cache keeps its own stats).
  struct MemoStats {
    std::uint64_t hits = 0;    ///< lookups served from a valid node
    std::uint64_t misses = 0;  ///< lookups on dirty/never-solved nodes
    std::uint64_t stores = 0;  ///< fronts (re)computed and memoized
  };

  /// Parses the textual model (at/parser.hpp format).  The model kind is
  /// chosen by the problem: probabilistic problems read prob=
  /// decorations, deterministic ones ignore them.  Throws ParseError /
  /// ModelError on bad input.
  Session(const std::string& model_text, Options options);
  Session(CdAt model, Options options);
  Session(CdpAt model, Options options);

  engine::Problem problem() const { return options_.problem; }
  bool probabilistic() const { return probabilistic_; }

  // -- Edit operations.  Return "" on success; on error the session is
  // unchanged and the message names the offending operand. -------------

  /// Sets the base cost of the named BAS (>= 0).
  std::string set_cost(const std::string& bas, double value);
  /// Sets the base success probability of the named BAS (in [0,1]);
  /// probabilistic sessions only.
  std::string set_prob(const std::string& bas, double value);
  /// Sets the damage of the named node (>= 0).
  std::string set_damage(const std::string& node, double value);
  /// Toggles hardening of the named BAS (Options::hardening semantics).
  std::string toggle_defense(const std::string& bas);
  /// Replaces the subtree rooted at the named node with the model parsed
  /// from \p subtree_text.  The replaced region must be exclusively
  /// owned (no node below the target is shared with the outside — always
  /// true on treelike models); the new subtree's node names must not
  /// collide with the surviving nodes'.
  std::string replace_subtree(const std::string& node,
                              const std::string& subtree_text);

  /// Re-solves the current effective model.  Never throws; solver
  /// failures come back as ok=false results.  The response's det/prob
  /// snapshot is immutable — later edits copy-on-write around it.
  Response resolve();

  std::uint64_t edit_count() const;
  std::uint64_t resolve_count() const;

  /// The current effective model (defense hardening applied) as an
  /// immutable snapshot — exactly what resolve() solves.  Null for the
  /// other kind.
  std::shared_ptr<const CdAt> snapshot_det();
  std::shared_ptr<const CdpAt> snapshot_prob();

  MemoStats memo_stats() const;

 private:
  class NodeMemoVisitor;
  class MemoAdapter;
  friend class NodeMemoVisitor;
  friend class MemoAdapter;

  void init(AttackTree tree, std::vector<double> cost,
            std::vector<double> damage, std::vector<double> prob);
  const AttackTree& tree() const {
    return det_ ? det_->tree : prob_->tree;
  }
  /// Clones the working model iff it was handed out since the last
  /// clone, so edits never mutate a snapshot a caller may be holding.
  void ensure_unique();
  /// Invalidates the memo for \p v and every (transitive) parent.
  void mark_dirty(NodeId v);
  /// The budget-class the chosen problem's sweep prunes with.
  double memo_budget() const;
  Response resolve_locked();

  mutable std::mutex mu_;
  Options options_;
  bool probabilistic_ = false;

  /// The working effective model (hardening applied); shared with
  /// responses, copy-on-write on edit.  Exactly one is non-null.
  std::shared_ptr<CdAt> det_;
  std::shared_ptr<CdpAt> prob_;
  /// True once the current model pointer was handed to a caller; the
  /// next edit then clones before mutating (see ensure_unique()).
  bool handed_out_ = false;

  // Defense bookkeeping: base (undefended) values per BAS index.
  std::vector<double> base_cost_;
  std::vector<double> base_prob_;
  std::vector<bool> defended_;

  // Private per-node memo; indexed by NodeId of the current tree.
  // Fronts are kept in SoA form (per-node TripleBuf columns), the form
  // the sweep's memo protocol exchanges: hits and stores are contiguous
  // column copies instead of per-triple heap walks — on a single-leaf-edit
  // re-solve the memo boundary IS the hot path, every clean sibling of
  // the dirty root-path enters through it.
  std::vector<char> memo_valid_;
  std::vector<TripleBuf> memo_soa_;
  std::vector<char> dirty_seen_;  ///< scratch for mark_dirty's walk
  MemoStats memo_stats_;
  /// Registry mirrors of memo_stats_ (Options::metrics); fed by delta
  /// once per resolve rather than per memo probe — the memo lookups run
  /// under the session mutex, so batching the registry adds keeps the
  /// incremental hot path untouched.  Null when no registry was given.
  obs::Counter* memo_hits_c_ = nullptr;
  obs::Counter* memo_misses_c_ = nullptr;
  obs::Counter* memo_stores_c_ = nullptr;

  CanonHash hash_ = 0;       ///< fingerprint of the working model
  bool hash_dirty_ = true;
  /// Incremental Merkle state for treelike models: per-node hashes plus
  /// validity bits, invalidated along the same root-path walk as the
  /// front memo, so a post-edit resolve rehashes O(depth) nodes instead
  /// of the whole tree.
  std::vector<std::uint64_t> fp_hash_;
  std::vector<char> fp_valid_;
  std::uint64_t edits_ = 0;
  std::uint64_t resolves_ = 0;
};

/// Id -> Session registry shared by a server's connections.  Thread-safe;
/// sessions are handed out as shared_ptr so a close() during a concurrent
/// resolve() is safe (the session dies when the last user drops it).
class SessionManager {
 public:
  /// Registers a session and returns its id (ids start at 1).
  std::uint64_t open(std::unique_ptr<Session> session);

  /// Looks a session up; null when unknown/closed.
  std::shared_ptr<Session> find(std::uint64_t id) const;

  /// Closes a session; false when unknown.
  bool close(std::uint64_t id);

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
};

}  // namespace atcd::service
