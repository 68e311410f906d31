#include "service/session.hpp"

#include <unordered_set>
#include <utility>

#include "core/bottom_up_core.hpp"
#include "obs/trace.hpp"
#include "service/timing.hpp"

namespace atcd::service {

// ---------------------------------------------------------------------------
// The private NodeId-keyed memo: no hashing, no witness translation —
// NodeIds and the BAS indexing are stable between structural edits, so a
// valid node's front is returned verbatim.  One visitor per resolve;
// the session mutex is held for the whole solve, so no extra locking.
// ---------------------------------------------------------------------------

class Session::NodeMemoVisitor final : public atcd::detail::SubtreeVisitor {
 public:
  explicit NodeMemoVisitor(Session& s)
      : s_(s),
        wpa_(static_cast<std::uint32_t>((s.tree().bas_count() + 63) / 64)) {}

  // The memo is SoA, so a hit hands out a view of the stored columns and
  // a store is four column copies — no per-triple witness allocations.
  bool lookup(NodeId v, TripleView* out) override {
    if (!s_.memo_valid_[v]) {
      ++s_.memo_stats_.misses;
      return false;
    }
    ++s_.memo_stats_.hits;
    *out = s_.memo_soa_[v].view();
    return true;
  }

  void store(NodeId v, const TripleView& f) override {
    TripleBuf& b = s_.memo_soa_[v];
    b.set_wpa(wpa_);
    b.clear();
    if (f.n > 0) {
      b.cost.assign(f.cost, f.cost + f.n);
      b.damage.assign(f.damage, f.damage + f.n);
      b.act.assign(f.act, f.act + f.n);
      b.wit.assign(f.wit, f.wit + f.n * wpa_);
    }
    s_.memo_valid_[v] = 1;
    ++s_.memo_stats_.stores;
  }

 private:
  Session& s_;
  std::uint32_t wpa_;
};

/// engine::SubtreeMemo facade over the private memo, chainable with the
/// shared SubtreeCache.  Guards the budget-class: the backend binds CgD
/// with kNoBudget but DgC with the bound — only the session's own class
/// may touch the memo (a mismatch would poison it).
class Session::MemoAdapter final : public engine::SubtreeMemo {
 public:
  explicit MemoAdapter(Session& s) : s_(s) {}

  std::unique_ptr<atcd::detail::SubtreeVisitor> bind(const CdAt& m,
                                                     double budget) override {
    return bind_checked(&m.tree == &s_.tree(), budget);
  }
  std::unique_ptr<atcd::detail::SubtreeVisitor> bind(const CdpAt& m,
                                                     double budget) override {
    return bind_checked(&m.tree == &s_.tree(), budget);
  }

 private:
  std::unique_ptr<atcd::detail::SubtreeVisitor> bind_checked(bool same_model,
                                                             double budget) {
    if (!same_model) return nullptr;
    if (budget != s_.memo_budget()) return nullptr;
    return std::make_unique<NodeMemoVisitor>(s_);
  }

  Session& s_;
};

// ---------------------------------------------------------------------------
// Construction.
// ---------------------------------------------------------------------------

Session::Session(const std::string& model_text, Options options)
    : options_(std::move(options)),
      probabilistic_(engine::is_probabilistic(options_.problem)) {
  ParsedModel parsed = parse_model(model_text);
  init(std::move(parsed.tree), std::move(parsed.cost),
       std::move(parsed.damage), std::move(parsed.prob));
}

Session::Session(CdAt model, Options options)
    : options_(std::move(options)),
      probabilistic_(engine::is_probabilistic(options_.problem)) {
  if (probabilistic_)
    throw ModelError(std::string("session for ") +
                     engine::to_string(options_.problem) +
                     " needs a probabilistic model");
  model.validate();
  init(std::move(model.tree), std::move(model.cost), std::move(model.damage),
       {});
}

Session::Session(CdpAt model, Options options)
    : options_(std::move(options)),
      probabilistic_(engine::is_probabilistic(options_.problem)) {
  if (!probabilistic_)
    throw ModelError(std::string("session for ") +
                     engine::to_string(options_.problem) +
                     " needs a deterministic model");
  model.validate();
  init(std::move(model.tree), std::move(model.cost), std::move(model.damage),
       std::move(model.prob));
}

void Session::init(AttackTree tree, std::vector<double> cost,
                   std::vector<double> damage, std::vector<double> prob) {
  if (options_.metrics) {
    memo_hits_c_ = &options_.metrics->counter("atcd_session_memo_hits_total");
    memo_misses_c_ =
        &options_.metrics->counter("atcd_session_memo_misses_total");
    memo_stores_c_ =
        &options_.metrics->counter("atcd_session_memo_stores_total");
  }
  base_cost_ = cost;
  defended_.assign(tree.bas_count(), false);
  if (probabilistic_) {
    if (prob.empty()) prob.assign(tree.bas_count(), 1.0);
    base_prob_ = prob;
    prob_ = std::make_shared<CdpAt>(CdpAt{std::move(tree), std::move(cost),
                                          std::move(damage),
                                          std::move(prob)});
    prob_->validate();
  } else {
    det_ = std::make_shared<CdAt>(
        CdAt{std::move(tree), std::move(cost), std::move(damage)});
    det_->validate();
  }
  const std::size_t n = this->tree().node_count();
  memo_valid_.assign(n, 0);
  memo_soa_.assign(n, {});
  fp_hash_.assign(n, 0);
  fp_valid_.assign(n, 0);
  hash_dirty_ = true;
}

// ---------------------------------------------------------------------------
// Edits.
// ---------------------------------------------------------------------------

void Session::ensure_unique() {
  // Copy-on-write keyed on an explicit handed_out_ flag, NOT on
  // use_count(): a use_count()==1 observation does not happen-after a
  // concurrent reader's final release (the reason shared_ptr::unique()
  // was deprecated), so mutating in place on it would race with that
  // reader's last reads.  The flag is set under this same mutex whenever
  // a snapshot pointer leaves the session, and cleared once we clone —
  // conservative (the holder may already be gone) but race-free.
  if (!handed_out_) return;
  if (det_) det_ = std::make_shared<CdAt>(*det_);
  if (prob_) prob_ = std::make_shared<CdpAt>(*prob_);
  handed_out_ = false;
}

void Session::mark_dirty(NodeId v) {
  // Walk every ancestor unconditionally.  Validity is NOT a safe
  // visited-marker for the upward walk: a shared-cache promotion can
  // re-validate an ancestor (an edit-undo brings back a front the
  // shared layer still holds) while deeper path nodes stay invalid, so
  // stopping at the first invalid node would strand stale valid
  // ancestors above it.
  dirty_seen_.assign(tree().node_count(), 0);
  std::vector<NodeId> stack{v};
  dirty_seen_[v] = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    memo_valid_[u] = 0;
    fp_valid_[u] = 0;
    for (NodeId p : tree().parents(u))
      if (!dirty_seen_[p]) {
        dirty_seen_[p] = 1;
        stack.push_back(p);
      }
  }
}

double Session::memo_budget() const {
  switch (options_.problem) {
    case engine::Problem::Dgc:
    case engine::Problem::Edgc:
      return options_.bound;  // budget-pruned sweep
    default:
      return kNoBudget;  // fronts, and CgD/CgED via the full front
  }
}

std::string Session::set_cost(const std::string& bas, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto v = tree().find(bas);
  if (!v || !tree().is_bas(*v))
    return "set-cost: no BAS named '" + bas + "'";
  if (!(value >= 0.0)) return "set-cost: cost must be >= 0";
  ensure_unique();
  const std::uint32_t i = tree().bas_index(*v);
  base_cost_[i] = value;
  (det_ ? det_->cost : prob_->cost)[i] =
      defense::hardened_cost(value, defended_[i], options_.hardening);
  mark_dirty(*v);
  hash_dirty_ = true;
  ++edits_;
  return {};
}

std::string Session::set_prob(const std::string& bas, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!probabilistic_)
    return "set-prob: session problem " +
           std::string(engine::to_string(options_.problem)) +
           " is deterministic";
  const auto v = tree().find(bas);
  if (!v || !tree().is_bas(*v))
    return "set-prob: no BAS named '" + bas + "'";
  if (!(value >= 0.0 && value <= 1.0))
    return "set-prob: probability must lie in [0,1]";
  ensure_unique();
  const std::uint32_t i = tree().bas_index(*v);
  base_prob_[i] = value;
  prob_->prob[i] =
      defense::hardened_prob(value, defended_[i], options_.hardening);
  mark_dirty(*v);
  hash_dirty_ = true;
  ++edits_;
  return {};
}

std::string Session::set_damage(const std::string& node, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto v = tree().find(node);
  if (!v) return "set-damage: no node named '" + node + "'";
  if (!(value >= 0.0)) return "set-damage: damage must be >= 0";
  ensure_unique();
  (det_ ? det_->damage : prob_->damage)[*v] = value;
  mark_dirty(*v);
  hash_dirty_ = true;
  ++edits_;
  return {};
}

std::string Session::toggle_defense(const std::string& bas) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto v = tree().find(bas);
  if (!v || !tree().is_bas(*v))
    return "toggle-defense: no BAS named '" + bas + "'";
  ensure_unique();
  const std::uint32_t i = tree().bas_index(*v);
  defended_[i] = !defended_[i];
  (det_ ? det_->cost : prob_->cost)[i] = defense::hardened_cost(
      base_cost_[i], defended_[i], options_.hardening);
  if (probabilistic_)
    prob_->prob[i] = defense::hardened_prob(base_prob_[i], defended_[i],
                                            options_.hardening);
  mark_dirty(*v);
  hash_dirty_ = true;
  ++edits_;
  return {};
}

std::string Session::replace_subtree(const std::string& node,
                                     const std::string& subtree_text) {
  std::lock_guard<std::mutex> lock(mu_);
  const AttackTree& old = tree();
  const auto target_opt = old.find(node);
  if (!target_opt) return "replace-subtree: no node named '" + node + "'";
  const NodeId target = *target_opt;

  ParsedModel sub;
  try {
    sub = parse_model(subtree_text);
  } catch (const std::exception& e) {
    return std::string("replace-subtree: bad subtree model: ") + e.what();
  }

  // The removed region: everything reachable from the target.  Every
  // removed node other than the target must be reachable *only* through
  // the region, or splicing it out would break an outside parent —
  // automatic on treelike models, checked explicitly for DAGs.
  std::vector<bool> removed(old.node_count(), false);
  std::vector<NodeId> stack{target};
  removed[target] = true;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId c : old.children(v))
      if (!removed[c]) {
        removed[c] = true;
        stack.push_back(c);
      }
  }
  for (NodeId v = 0; v < static_cast<NodeId>(old.node_count()); ++v) {
    if (!removed[v] || v == target) continue;
    for (NodeId p : old.parents(v))
      if (!removed[p])
        return "replace-subtree: node '" + old.name(v) + "' below '" + node +
               "' is shared with the rest of the model; only "
               "exclusively-owned subtrees can be replaced";
  }

  // Surviving names must not collide with the new subtree's.
  std::unordered_set<std::string> kept;
  for (NodeId v = 0; v < static_cast<NodeId>(old.node_count()); ++v)
    if (!removed[v]) kept.insert(old.name(v));
  for (NodeId v = 0; v < static_cast<NodeId>(sub.tree.node_count()); ++v)
    if (kept.count(sub.tree.name(v)))
      return "replace-subtree: name '" + sub.tree.name(v) +
             "' already exists outside the replaced subtree";

  // Build the spliced tree: the new subtree first (its topological order
  // is children-first), then the survivors, re-pointing references to
  // the target at the new subtree's root.  Everything goes into
  // temporaries and is validated before any member changes.
  const std::vector<double>& old_damage = det_ ? det_->damage : prob_->damage;
  AttackTree nt;
  std::vector<double> n_base_cost, n_base_prob, n_damage;
  std::vector<bool> n_defended;
  std::vector<NodeId> sub2new(sub.tree.node_count(), kNoNode);
  std::vector<NodeId> old2new(old.node_count(), kNoNode);
  try {
    for (NodeId v : sub.tree.topological_order()) {
      const auto& n = sub.tree.node(v);
      if (n.type == NodeType::BAS) {
        sub2new[v] = nt.add_bas(n.name);
        n_base_cost.push_back(sub.cost[n.bas_index]);
        n_base_prob.push_back(sub.prob[n.bas_index]);
        n_defended.push_back(false);
      } else {
        std::vector<NodeId> cs;
        cs.reserve(n.children.size());
        for (NodeId c : n.children) cs.push_back(sub2new[c]);
        sub2new[v] = nt.add_gate(n.type, n.name, std::move(cs));
      }
      n_damage.push_back(sub.damage[v]);
    }
    for (NodeId v : old.topological_order()) {
      if (removed[v]) continue;
      const auto& n = old.node(v);
      if (n.type == NodeType::BAS) {
        old2new[v] = nt.add_bas(n.name);
        n_base_cost.push_back(base_cost_[n.bas_index]);
        n_base_prob.push_back(probabilistic_ ? base_prob_[n.bas_index] : 1.0);
        n_defended.push_back(defended_[n.bas_index]);
      } else {
        std::vector<NodeId> cs;
        cs.reserve(n.children.size());
        for (NodeId c : n.children)
          cs.push_back(c == target ? sub2new[sub.tree.root()] : old2new[c]);
        old2new[v] = nt.add_gate(n.type, n.name, std::move(cs));
      }
      n_damage.push_back(old_damage[v]);
    }
    nt.set_root(target == old.root() ? sub2new[sub.tree.root()]
                                     : old2new[old.root()]);
    nt.finalize();

    std::vector<double> n_cost(n_base_cost.size());
    std::vector<double> n_prob(n_base_prob.size());
    for (std::size_t i = 0; i < n_cost.size(); ++i) {
      n_cost[i] = defense::hardened_cost(n_base_cost[i], n_defended[i],
                                         options_.hardening);
      n_prob[i] = defense::hardened_prob(n_base_prob[i], n_defended[i],
                                         options_.hardening);
    }
    if (probabilistic_) {
      auto m = std::make_shared<CdpAt>(CdpAt{std::move(nt), std::move(n_cost),
                                             std::move(n_damage),
                                             std::move(n_prob)});
      m->validate();
      prob_ = std::move(m);
    } else {
      auto m = std::make_shared<CdAt>(
          CdAt{std::move(nt), std::move(n_cost), std::move(n_damage)});
      m->validate();
      det_ = std::move(m);
    }
  } catch (const std::exception& e) {
    return std::string("replace-subtree: ") + e.what();
  }

  base_cost_ = std::move(n_base_cost);
  base_prob_ = probabilistic_ ? std::move(n_base_prob)
                              : std::vector<double>{};
  defended_ = std::move(n_defended);
  // The freshly built model is not shared with anyone yet; clearing the
  // flag spares the next edit a pointless whole-model clone.
  handed_out_ = false;
  // NodeIds and BAS indices moved: the private memo resets wholesale.
  // Attach a shared SubtreeCache (Options::shared) to re-cover unchanged
  // subtrees by canonical hash instead.
  const std::size_t n = tree().node_count();
  memo_valid_.assign(n, 0);
  memo_soa_.assign(n, {});
  fp_hash_.assign(n, 0);
  fp_valid_.assign(n, 0);
  hash_dirty_ = true;
  ++edits_;
  return {};
}

// ---------------------------------------------------------------------------
// Resolve.
// ---------------------------------------------------------------------------

Response Session::resolve() {
  std::lock_guard<std::mutex> lock(mu_);
  return resolve_locked();
}

Response Session::resolve_locked() {
  const auto t0 = detail::Clock::now();
  obs::SpanScope span("session.resolve");
  Response resp;
  resp.problem = options_.problem;
  if (options_.snapshots) {
    resp.det = det_;
    resp.prob = prob_;
    handed_out_ = true;
  }
  if (hash_dirty_) {
    // Treelike models rehash only the edit-dirtied root-paths (the same
    // O(depth) set the front memo recomputes); the value is identical to
    // model_fingerprint()'s.
    if (tree().is_treelike())
      hash_ = det_ ? treelike_fingerprint_update(det_->tree, det_->cost,
                                                 det_->damage, nullptr,
                                                 &fp_hash_, &fp_valid_)
                   : treelike_fingerprint_update(prob_->tree, prob_->cost,
                                                 prob_->damage, &prob_->prob,
                                                 &fp_hash_, &fp_valid_);
    else
      hash_ = det_ ? model_fingerprint(*det_) : model_fingerprint(*prob_);
    hash_dirty_ = false;
  }
  resp.model_hash = hash_;

  engine::Instance in;
  in.problem = options_.problem;
  in.det = det_.get();
  in.prob = prob_.get();
  in.bound = options_.bound;
  in.backend = options_.engine_name;

  engine::BatchOptions opt = options_.batch;
  MemoAdapter private_memo(*this);
  ChainedSubtreeMemo chain(&private_memo, options_.shared);
  opt.subtree = &chain;

  const MemoStats before = memo_stats_;
  resp.result = engine::solve_one(in, opt);
  ++resolves_;
  // Mirror this resolve's memo activity into the registry and the
  // active trace (if any) as one batched delta per counter.
  const std::uint64_t d_hits = memo_stats_.hits - before.hits;
  const std::uint64_t d_misses = memo_stats_.misses - before.misses;
  const std::uint64_t d_stores = memo_stats_.stores - before.stores;
  if (memo_hits_c_) {
    if (d_hits) memo_hits_c_->add(d_hits);
    if (d_misses) memo_misses_c_->add(d_misses);
    if (d_stores) memo_stores_c_->add(d_stores);
  }
  obs::trace_fact("session_memo_hits", d_hits);
  obs::trace_fact("session_memo_misses", d_misses);
  obs::trace_fact("session_memo_stores", d_stores);
  resp.micros = detail::micros_since(t0);
  return resp;
}

std::uint64_t Session::edit_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return edits_;
}

std::uint64_t Session::resolve_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resolves_;
}

std::shared_ptr<const CdAt> Session::snapshot_det() {
  std::lock_guard<std::mutex> lock(mu_);
  if (det_) handed_out_ = true;
  return det_;
}

std::shared_ptr<const CdpAt> Session::snapshot_prob() {
  std::lock_guard<std::mutex> lock(mu_);
  if (prob_) handed_out_ = true;
  return prob_;
}

Session::MemoStats Session::memo_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_stats_;
}

// ---------------------------------------------------------------------------
// SessionManager.
// ---------------------------------------------------------------------------

std::uint64_t SessionManager::open(std::unique_ptr<Session> session) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  sessions_.emplace(id, std::shared_ptr<Session>(std::move(session)));
  return id;
}

std::shared_ptr<Session> SessionManager::find(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool SessionManager::close(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.erase(id) != 0;
}

std::size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace atcd::service
