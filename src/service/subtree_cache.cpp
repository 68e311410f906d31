#include "service/subtree_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "obs/trace.hpp"
#include "service/hash_mix.hpp"

namespace atcd::service {
namespace {

void append_hex(std::string& out, std::uint64_t v) {
  // Manual hex: signature materialization appends hundreds of these per
  // subtree, and snprintf is an order of magnitude slower.
  constexpr char digits[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = digits[v & 15];
    v >>= 4;
  }
  out.append(buf, 16);
}

std::size_t front_bytes(const std::vector<AttrTriple>& front) {
  std::size_t b = front.capacity() * sizeof(AttrTriple);
  for (const auto& t : front)
    b += (t.witness.size() + 63) / 64 * 8;
  return b;
}

}  // namespace

// ---------------------------------------------------------------------------
// Binding: the per-solve visitor translating between the host model's
// BAS space and the canonical subtree-local leaf space.
// ---------------------------------------------------------------------------

class SubtreeBinding final : public atcd::detail::SubtreeVisitor {
 public:
  SubtreeBinding(SubtreeCache& cache, const AttackTree& tree,
                 const std::vector<double>& cost,
                 const std::vector<double>& damage,
                 const std::vector<double>* prob, double budget)
      : cache_(cache),
        tree_(tree),
        cost_(cost),
        damage_(damage),
        prob_(prob),
        budget_(double_bits(budget) == double_bits(0.0) ? 0.0 : budget),
        hit_(static_cast<std::uint32_t>((tree.bas_count() + 63) / 64)) {
    const std::size_t n = tree.node_count();
    hash_.resize(n);
    count_.resize(n);
    offset_.resize(n);
    order_.resize(n);
    sig_.resize(n);
    // Children-first order, so child hashes exist when a gate's is
    // built.  The canonical child order sorts by (subtree hash,
    // original position) — the index tiebreak keeps the order
    // deterministic across bindings of the same model, and
    // equal-content children are isomorphic, so any consistent
    // assignment maps decoration-identical leaves onto each other.  (A
    // hash collision between *different* siblings could order two
    // submissions differently, but then their full signatures differ
    // too, so the deep check below turns the reuse into a miss.)
    for (NodeId v : tree.topological_order()) {
      const auto& node = tree.node(v);
      if (node.type == NodeType::BAS) {
        // The deterministic sweep runs with implicit p = 1 (the paper's
        // embedding); spell it out so CdAt and all-ones CdpAt subtrees
        // share entries.
        hash_[v] = merkle_bas_hash(cost[node.bas_index], damage[v],
                            prob ? (*prob)[node.bas_index] : 1.0);
        count_[v] = 1;
      } else {
        order_[v] = node.children;
        std::sort(order_[v].begin(), order_[v].end(),
                  [&](NodeId a, NodeId b) {
                    return hash_[a] != hash_[b] ? hash_[a] < hash_[b] : a < b;
                  });
        std::uint64_t h =
            merkle_gate_seed(node.type, damage[v], node.children.size());
        std::size_t cnt = 0;
        for (NodeId c : order_[v]) {
          h = mix64(h, hash_[c]);
          cnt += count_[c];
        }
        hash_[v] = h;
        count_[v] = cnt;
      }
    }
    // One canonical-order DFS lays every node's leaf list out
    // contiguously in canon_leaves_ (a gate's children are visited
    // back-to-back, so its range is the concatenation of theirs) —
    // per-node leaf *vectors* would be O(n * depth), quadratic on
    // chain-shaped models, paid on every solve the cache is attached to.
    canon_leaves_.reserve(tree.bas_count());
    std::vector<std::pair<NodeId, std::size_t>> dfs{{tree.root(), 0}};
    while (!dfs.empty()) {
      const NodeId v = dfs.back().first;
      const std::size_t child = dfs.back().second;
      if (child == 0) offset_[v] = canon_leaves_.size();
      if (tree.node(v).type == NodeType::BAS) {
        canon_leaves_.push_back(tree.node(v).bas_index);
        dfs.pop_back();
        continue;
      }
      if (child == order_[v].size()) {
        dfs.pop_back();
        continue;
      }
      ++dfs.back().second;
      dfs.push_back({order_[v][child], 0});
    }
  }

  bool lookup(NodeId v, TripleView* out) override {
    if (count_[v] < cache_.config_.min_leaves) return false;
    const auto front =
        cache_.find(key_of(v), [&]() -> const std::string& { return sig(v); });
    if (!front) return false;
    // Local -> host, straight into the binding's SoA buffer: local leaf
    // position i is the host BAS leaf(v, i).
    hit_.clear();
    hit_.reserve(front->size());
    for (const AttrTriple& t : *front) {
      std::uint64_t* w = hit_.witness(hit_.push_zero(t.t.cost, t.t.damage,
                                                     t.t.act));
      for (std::size_t k = 0; k < t.witness.word_count(); ++k)
        for (std::uint64_t bits = t.witness.word(k); bits; bits &= bits - 1) {
          const std::uint32_t b = leaf(v, k * 64 + std::countr_zero(bits));
          w[b >> 6] |= std::uint64_t{1} << (b & 63);
        }
    }
    *out = hit_.view();
    return true;
  }

  void store(NodeId v, const TripleView& front) override {
    const std::size_t n_local = count_[v];
    if (n_local < cache_.config_.min_leaves) return;
    // Host -> local inverse map over this subtree's leaves only; a
    // witness bit outside the subtree would be a sweep invariant
    // violation — bail rather than cache a wrong front.
    constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    std::vector<std::uint32_t> local_of(tree_.bas_count(), kAbsent);
    for (std::size_t i = 0; i < n_local; ++i) local_of[leaf(v, i)] = i;
    const std::size_t wpa = hit_.wpa();
    std::vector<AttrTriple> local;
    local.reserve(front.n);
    for (std::size_t r = 0; r < front.n; ++r) {
      AttrTriple l;
      l.t = {front.cost[r], front.damage[r], front.act[r]};
      l.witness = Attack(n_local);
      const std::uint64_t* w = front.wit + r * wpa;
      for (std::size_t k = 0; k < wpa; ++k)
        for (std::uint64_t bits = w[k]; bits; bits &= bits - 1) {
          const std::uint32_t i = local_of[k * 64 + std::countr_zero(bits)];
          if (i == kAbsent) return;
          l.witness.set(i);
        }
      local.push_back(std::move(l));
    }
    cache_.put(key_of(v), sig(v), std::move(local));
  }

  std::uint64_t root_hash() const { return hash_[tree_.root()]; }

 private:
  SubtreeCache::Key key_of(NodeId v) const {
    return SubtreeCache::Key{hash_[v], budget_};
  }

  /// Host BAS index of subtree v's i-th canonical leaf.
  std::uint32_t leaf(NodeId v, std::size_t i) const {
    return canon_leaves_[offset_[v] + i];
  }

  /// The full canonical signature — the collision deep check.  Built
  /// lazily: the hot path (a warm re-solve) only ever materializes the
  /// signatures of the few nodes whose keys are actually present or
  /// stored, not all O(n) of them.
  const std::string& sig(NodeId v) {
    std::string& s = sig_[v];
    if (s.empty()) append_sig(v, s);
    return s;
  }

  void append_sig(NodeId v, std::string& out) const {
    if (!sig_[v].empty()) {  // already materialized: splice it in
      out += sig_[v];
      return;
    }
    const auto& node = tree_.node(v);
    if (node.type == NodeType::BAS) {
      out += 'B';
      append_hex(out, double_bits(cost_[node.bas_index]));
      out += ',';
      append_hex(out, double_bits(damage_[v]));
      out += ',';
      append_hex(out, double_bits(prob_ ? (*prob_)[node.bas_index] : 1.0));
      return;
    }
    out += node.type == NodeType::AND ? 'A' : 'O';
    append_hex(out, double_bits(damage_[v]));
    out += '(';
    for (NodeId c : order_[v]) {
      append_sig(c, out);
      out += ';';
    }
    out += ')';
  }

  SubtreeCache& cache_;
  const AttackTree& tree_;
  const std::vector<double>& cost_;
  const std::vector<double>& damage_;
  const std::vector<double>* prob_;
  double budget_;
  std::vector<std::uint64_t> hash_;   ///< Merkle subtree hash
  std::vector<std::size_t> count_;    ///< subtree leaf count
  std::vector<std::size_t> offset_;   ///< start of v's leaves in canon_leaves_
  std::vector<std::uint32_t> canon_leaves_;  ///< flat canonical leaf order
  std::vector<std::vector<NodeId>> order_;   ///< children, canonical order
  std::vector<std::string> sig_;             ///< lazy; "" = not materialized
  TripleBuf hit_;  ///< host-space copy of the last hit; lookup()'s view
};

// ---------------------------------------------------------------------------
// SubtreeCache.
// ---------------------------------------------------------------------------

std::size_t SubtreeCache::KeyHasher::operator()(const Key& k) const {
  return static_cast<std::size_t>(mix64(k.hash, double_bits(k.budget)));
}

SubtreeCache::SubtreeCache() : SubtreeCache(Config{}) {}

SubtreeCache::SubtreeCache(Config config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  entry_budget_per_shard_ =
      std::max<std::size_t>(1, (config_.max_entries + config_.shards - 1) /
                                   config_.shards);
  byte_budget_per_shard_ =
      std::max<std::size_t>(1, (config_.max_bytes + config_.shards - 1) /
                                   config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  obs::Registry* reg = config_.metrics;
  if (!reg) {
    owned_metrics_ = std::make_unique<obs::Registry>();
    reg = owned_metrics_.get();
  }
  hits_ = &reg->counter("atcd_subtree_cache_hits_total");
  misses_ = &reg->counter("atcd_subtree_cache_misses_total");
  insertions_ = &reg->counter("atcd_subtree_cache_insertions_total");
  evictions_ = &reg->counter("atcd_subtree_cache_evictions_total");
  collisions_ = &reg->counter("atcd_subtree_cache_collisions_total");
}

std::unique_ptr<atcd::detail::SubtreeVisitor> SubtreeCache::bind(
    const CdAt& m, double budget) {
  return bind(m.tree, m.cost, m.damage, nullptr, budget);
}

std::unique_ptr<atcd::detail::SubtreeVisitor> SubtreeCache::bind(
    const CdpAt& m, double budget) {
  return bind(m.tree, m.cost, m.damage, &m.prob, budget);
}

std::unique_ptr<atcd::detail::SubtreeVisitor> SubtreeCache::bind(
    const AttackTree& tree, const std::vector<double>& cost,
    const std::vector<double>& damage, const std::vector<double>* prob,
    double budget) {
  if (!tree.finalized() || !tree.is_treelike()) return nullptr;
  return std::make_unique<SubtreeBinding>(*this, tree, cost, damage, prob,
                                          budget);
}

SubtreeCache::Shard& SubtreeCache::shard_of(const Key& key) {
  return *shards_[static_cast<std::size_t>(
                      mix64(0x54B7Eull, KeyHasher{}(key))) %
                  shards_.size()];
}

std::shared_ptr<const std::vector<AttrTriple>> SubtreeCache::find(
    const Key& key, const std::function<const std::string&()>& sig_of) {
  Shard& shard = shard_of(key);
  std::shared_ptr<const std::string> e_sig;
  std::shared_ptr<const std::vector<AttrTriple>> e_front;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      misses_->add(1);
      obs::trace_fact("subtree_cache_misses", 1);
      return nullptr;
    }
    e_sig = it->second->sig;
    e_front = it->second->front;
    // Refreshing recency before the deep check means an (astronomically
    // rare) colliding probe also touches the entry — harmless.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  }
  // The signature deep check runs outside the lock (the entry fields are
  // shared immutable); sig_of materializes the probe's signature only
  // now that there is an entry to check it against.
  if (*e_sig != sig_of()) {
    collisions_->add(1);
    misses_->add(1);
    obs::trace_fact("subtree_cache_misses", 1);
    return nullptr;
  }
  hits_->add(1);
  obs::trace_fact("subtree_cache_hits", 1);
  return e_front;
}

void SubtreeCache::put(const Key& key, const std::string& sig,
                       std::vector<AttrTriple> front) {
  const std::size_t bytes =
      sizeof(Entry) + sig.size() + front_bytes(front);
  if (bytes > byte_budget_per_shard_) return;  // would evict a whole shard
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    if (*it->second->sig != sig) {
      // True hash collision: keep the incumbent so the two subtrees
      // don't keep evicting each other's entry.
      collisions_->add(1);
      return;
    }
    // Same subtree recomputed (e.g. concurrent bindings): the fronts are
    // equivalent, just refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{
      key, std::make_shared<const std::string>(sig),
      std::make_shared<const std::vector<AttrTriple>>(std::move(front)),
      bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  insertions_->add(1);
  evict_to_budget(shard);
}

void SubtreeCache::evict_to_budget(Shard& shard) {
  while (!shard.lru.empty() && (shard.lru.size() > entry_budget_per_shard_ ||
                                shard.bytes > byte_budget_per_shard_)) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_->add(1);
  }
}

std::vector<SubtreeCache::ExportedEntry> SubtreeCache::export_entries()
    const {
  std::vector<ExportedEntry> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it)
      out.push_back({it->key.hash, it->key.budget, it->sig, it->front});
  }
  return out;
}

void SubtreeCache::restore_entry(std::uint64_t hash, double budget,
                                 const std::string& sig,
                                 std::vector<AttrTriple> front) {
  // Same budget normalization as SubtreeBinding: -0.0 keys as 0.0.
  Key key{hash, double_bits(budget) == double_bits(0.0) ? 0.0 : budget};
  put(key, sig, std::move(front));
}

bool witnesses_fit_signature(const std::string& sig,
                             const std::vector<AttrTriple>& front) {
  // append_sig() writes one 'B' per leaf; hex digits are lowercase.
  const auto leaves =
      static_cast<std::size_t>(std::count(sig.begin(), sig.end(), 'B'));
  return std::all_of(front.begin(), front.end(), [&](const AttrTriple& t) {
    return t.witness.fits_in(leaves);
  });
}

SubtreeCache::Stats SubtreeCache::stats() const {
  Stats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.insertions = insertions_->value();
  s.evictions = evictions_->value();
  s.collisions = collisions_->value();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += shard->lru.size();
    s.bytes += shard->bytes;
  }
  return s;
}

void SubtreeCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

// ---------------------------------------------------------------------------
// ChainedSubtreeMemo.
// ---------------------------------------------------------------------------

namespace {

class ChainVisitor final : public atcd::detail::SubtreeVisitor {
 public:
  ChainVisitor(std::unique_ptr<atcd::detail::SubtreeVisitor> a,
               std::unique_ptr<atcd::detail::SubtreeVisitor> b)
      : a_(std::move(a)), b_(std::move(b)) {}

  bool lookup(NodeId v, TripleView* out) override {
    if (a_->lookup(v, out)) return true;
    if (b_->lookup(v, out)) {
      a_->store(v, *out);  // promote so later resolves hit the fast layer
      return true;
    }
    return false;
  }

  void store(NodeId v, const TripleView& front) override {
    a_->store(v, front);
    b_->store(v, front);
  }

 private:
  std::unique_ptr<atcd::detail::SubtreeVisitor> a_;
  std::unique_ptr<atcd::detail::SubtreeVisitor> b_;
};

}  // namespace

std::unique_ptr<atcd::detail::SubtreeVisitor> ChainedSubtreeMemo::chain(
    std::unique_ptr<atcd::detail::SubtreeVisitor> a,
    std::unique_ptr<atcd::detail::SubtreeVisitor> b) {
  if (!a) return b;
  if (!b) return a;
  return std::make_unique<ChainVisitor>(std::move(a), std::move(b));
}

std::unique_ptr<atcd::detail::SubtreeVisitor> ChainedSubtreeMemo::bind(
    const CdAt& m, double budget) {
  return chain(primary_ ? primary_->bind(m, budget) : nullptr,
               fallback_ ? fallback_->bind(m, budget) : nullptr);
}

std::unique_ptr<atcd::detail::SubtreeVisitor> ChainedSubtreeMemo::bind(
    const CdpAt& m, double budget) {
  return chain(primary_ ? primary_->bind(m, budget) : nullptr,
               fallback_ ? fallback_->bind(m, budget) : nullptr);
}

}  // namespace atcd::service
