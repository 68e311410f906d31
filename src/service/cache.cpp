#include "service/cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <string_view>

#include "obs/trace.hpp"
#include "service/hash_mix.hpp"

namespace atcd::service {
namespace {

std::size_t approx_bytes(const AttackTree& t) {
  std::size_t b = sizeof(AttackTree) +
                  t.node_count() * sizeof(AttackTree::Node) +
                  (t.node_count() + t.bas_count()) * sizeof(NodeId);
  for (NodeId v = 0; v < static_cast<NodeId>(t.node_count()); ++v) {
    const auto& n = t.node(v);
    b += n.name.size() +
         (n.children.size() + n.parents.size()) * sizeof(NodeId);
  }
  return b;
}

std::size_t approx_bytes(const DynBitset& x) {
  return sizeof(DynBitset) + (x.size() + 63) / 64 * 8;
}

std::size_t approx_bytes(const engine::SolveResult& r) {
  std::size_t b = sizeof(engine::SolveResult) + r.error.size() +
                  r.backend.size() + approx_bytes(r.attack.witness);
  for (const auto& p : r.front.points())
    b += sizeof(FrontPoint) + approx_bytes(p.witness);
  return b;
}

std::size_t entry_bytes(const CacheKey& key, const CdAt* det,
                        const CdpAt* prob, const engine::SolveResult& r) {
  std::size_t b = sizeof(CacheKey) + key.backend.size() + approx_bytes(r);
  if (det)
    b += sizeof(CdAt) + approx_bytes(det->tree) +
         (det->cost.size() + det->damage.size()) * sizeof(double);
  if (prob)
    b += sizeof(CdpAt) + approx_bytes(prob->tree) +
         (prob->cost.size() + prob->damage.size() + prob->prob.size()) *
             sizeof(double);
  return b;
}

std::size_t approx_bytes(const ResultCache::ExactAlias& a) {
  // The alias, its strings, and its index node plus shared_ptr control
  // block (about four pointers).
  std::size_t b = sizeof(ResultCache::ExactAlias) + a.key.backend.size() +
                  a.text.size() + 4 * sizeof(void*);
  for (const std::string& w : a.witnesses) b += sizeof(std::string) + w.size();
  return b;
}

/// Whether two results agree on everything but their witnesses.
bool same_values(const engine::SolveResult& a, const engine::SolveResult& b) {
  if (a.ok != b.ok || a.backend != b.backend ||
      a.attack.feasible != b.attack.feasible || a.attack.cost != b.attack.cost ||
      a.attack.damage != b.attack.damage || a.front.size() != b.front.size())
    return false;
  for (std::size_t i = 0; i < a.front.size(); ++i)
    if (!(a.front[i].value == b.front[i].value)) return false;
  return true;
}

/// Digest of an exact-alias probe: the key's problem, normalized bound
/// and backend, and the model text's bytes.  The model hash is not in
/// it — a probe does not know it.
std::uint64_t exact_hash(engine::Problem problem, double bound,
                         const std::string& backend, std::string_view text) {
  std::uint64_t h = mix64(0xE8AC7ull, std::hash<std::string_view>{}(text));
  h = mix64(h, static_cast<std::uint64_t>(problem));
  h = mix64(h, double_bits(bound));
  return mix64(h, std::hash<std::string_view>{}(backend));
}

}  // namespace

std::size_t hash_of(const CacheKey& key) {
  std::uint64_t h = mix64(0xCAC4Eull, key.model);
  h = mix64(h, static_cast<std::uint64_t>(key.problem));
  h = mix64(h, std::bit_cast<std::uint64_t>(key.bound == 0.0 ? 0.0 : key.bound));
  for (char c : key.backend) h = mix64(h, static_cast<unsigned char>(c));
  return static_cast<std::size_t>(h);
}

std::optional<CacheKey> make_key(const engine::Instance& in) {
  if (!engine::instance_error(in).empty()) return std::nullopt;
  if (!engine::is_front(in.problem) && !std::isfinite(in.bound))
    return std::nullopt;
  CacheKey key;
  key.model = engine::is_probabilistic(in.problem)
                  ? model_fingerprint(*in.prob)
                  : model_fingerprint(*in.det);
  key.problem = in.problem;
  key.bound = key_bound(in.problem, in.bound);
  key.backend = in.backend;
  return key;
}

void remap_witnesses(const AttackTree& from, const AttackTree& to,
                     const std::vector<NodeId>& iso,
                     engine::SolveResult* result) {
  const std::size_t n_bas = from.bas_count();
  std::vector<std::uint32_t> bas_remap(n_bas);
  bool identity = true;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(n_bas); ++i) {
    bas_remap[i] = to.bas_index(iso[from.bas_id(i)]);
    identity = identity && bas_remap[i] == i;
  }
  if (identity) return;

  const auto rewrite = [&](const DynBitset& w) {
    DynBitset out(w.size());
    for (std::size_t i : w.ones()) out.set(bas_remap[i]);
    return out;
  };
  if (result->attack.witness.size() == n_bas)
    result->attack.witness = rewrite(result->attack.witness);
  if (!result->front.empty()) {
    std::vector<FrontPoint> points(result->front.begin(),
                                   result->front.end());
    for (auto& p : points) p.witness = rewrite(p.witness);
    // Re-running the front builder on already-minimal points keeps the
    // same values in the same order; only the witnesses changed.
    result->front = Front2d::of_candidates(std::move(points));
  }
}

ResultCache::ResultCache() : ResultCache(Config{}) {}

ResultCache::ResultCache(Config config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  entry_budget_per_shard_ =
      std::max<std::size_t>(1, (config_.max_entries + config_.shards - 1) /
                                   config_.shards);
  byte_budget_per_shard_ =
      std::max<std::size_t>(1, (config_.max_bytes + config_.shards - 1) /
                                   config_.shards);
  shards_.reserve(config_.shards);
  stripes_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    stripes_.push_back(std::make_unique<AliasStripe>());
  }
  obs::Registry* reg = config_.metrics;
  if (!reg) {
    owned_metrics_ = std::make_unique<obs::Registry>();
    reg = owned_metrics_.get();
  }
  hits_ = &reg->counter("atcd_result_cache_hits_total");
  misses_ = &reg->counter("atcd_result_cache_misses_total");
  insertions_ = &reg->counter("atcd_result_cache_insertions_total");
  evictions_ = &reg->counter("atcd_result_cache_evictions_total");
  collisions_ = &reg->counter("atcd_result_cache_collisions_total");
  exact_hits_ = &reg->counter("atcd_result_cache_exact_hits_total");
}

std::size_t ResultCache::shard_index(const CacheKey& key) const {
  // Re-mix so the shard choice and the unordered_map bucket choice use
  // decorrelated bits.
  return static_cast<std::size_t>(mix64(0x54A2Dull, hash_of(key))) %
         shards_.size();
}

std::optional<engine::SolveResult> ResultCache::lookup(const CacheKey& key,
                                                       const CdAt* det,
                                                       const CdpAt* prob,
                                                       bool count_stats) {
  Shard& shard = *shards_[shard_index(key)];
  // Under the lock only find, refresh recency, and grab shared pointers;
  // the isomorphism deep check, result copy, and witness remap all run
  // outside so concurrent hits on the same shard don't serialize.
  // Entries are immutable after insertion, so the pointers stay valid
  // even if the entry is evicted concurrently.
  std::shared_ptr<const CdAt> e_det;
  std::shared_ptr<const CdpAt> e_prob;
  std::shared_ptr<const engine::SolveResult> e_result;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      if (count_stats) {
        misses_->add(1);
        obs::trace_fact("result_cache_misses", 1);
      }
      return std::nullopt;
    }
    const Entry& e = *it->second;
    e_det = e.det;
    e_prob = e.prob;
    e_result = e.result;
    // Refreshing recency before the deep check means an (astronomically
    // rare) colliding probe also touches the entry — harmless.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  }
  // Guard against canonical-hash collisions: the entry's retained model
  // must be semantically identical to the probe model.  The bijection
  // also translates the stored witnesses into the probe's BAS indexing
  // (an isomorphic resubmission may number its leaves differently).
  const std::vector<NodeId> iso =
      e_det ? (det ? canonical_isomorphism(*e_det, *det)
                   : std::vector<NodeId>{})
            : (prob ? canonical_isomorphism(*e_prob, *prob)
                    : std::vector<NodeId>{});
  if (iso.empty()) {
    if (count_stats) {
      collisions_->add(1);
      misses_->add(1);
      obs::trace_fact("result_cache_misses", 1);
    }
    return std::nullopt;
  }
  if (count_stats) {
    hits_->add(1);
    obs::trace_fact("result_cache_hits", 1);
  }
  engine::SolveResult out = *e_result;
  remap_witnesses(e_det ? e_det->tree : e_prob->tree,
                  det ? det->tree : prob->tree, iso, &out);
  return out;
}

void ResultCache::insert(const CacheKey& key, std::shared_ptr<const CdAt> det,
                         std::shared_ptr<const CdpAt> prob,
                         const engine::SolveResult& result) {
  const std::size_t bytes = entry_bytes(key, det.get(), prob.get(), result);
  if (bytes > byte_budget_per_shard_) return;  // would evict a whole shard
  Shard& shard = *shards_[shard_index(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    Entry& e = *it->second;
    const bool same =
        e.det ? (det != nullptr && equal_canonical(*e.det, *det))
              : (prob != nullptr && equal_canonical(*e.prob, *prob));
    if (!same) {
      // True hash collision: keep the incumbent; replacing it would let
      // the two models keep evicting each other's entry.
      collisions_->add(1);
      return;
    }
    // Same canonical model: the incumbent result is equivalent and its
    // witnesses already match the retained model's BAS indexing (the new
    // result's witnesses may not — it could be a permuted resubmission),
    // so just refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(
      Entry{key, std::move(det), std::move(prob),
            std::make_shared<engine::SolveResult>(result), {}, bytes});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  insertions_->add(1);
  evict_to_budget(shard);
}

ResultCache::AliasStripe& ResultCache::stripe_of(
    std::uint64_t alias_hash) const {
  return *stripes_[alias_hash % stripes_.size()];
}

std::shared_ptr<const ResultCache::ExactAlias> ResultCache::lookup_exact(
    engine::Problem problem, double bound, const std::string& backend,
    const std::string& text) {
  // Keys with a non-finite bound are never cached (see make_key).
  if (!engine::is_front(problem) && !std::isfinite(bound)) return nullptr;
  bound = key_bound(problem, bound);
  const std::uint64_t h = exact_hash(problem, bound, backend, text);
  std::shared_ptr<const ExactAlias> alias;
  {
    AliasStripe& stripe = stripe_of(h);
    std::lock_guard<std::mutex> lock(stripe.mu);
    const auto it = stripe.index.find(h);
    if (it == stripe.index.end()) return nullptr;
    alias = it->second;
  }
  // The alias is immutable, so the byte comparison runs unlocked.  Equal
  // digests of different probes (a digest collision) fall through to the
  // canonical path.
  if (alias->key.problem != problem || alias->key.bound != bound ||
      alias->key.backend != backend || alias->text != text)
    return nullptr;
  {
    // Refresh recency as a canonical hit would.  The entry may have been
    // evicted since the index read; the alias is self-contained, so it
    // is still served.
    Shard& shard = *shards_[shard_index(alias->key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(alias->key);
    if (it != shard.index.end())
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  }
  hits_->add(1);
  exact_hits_->add(1);
  obs::trace_fact("result_cache_hits", 1);
  obs::trace_fact("result_cache_exact_hits", 1);
  return alias;
}

void ResultCache::attach_exact(const CacheKey& key, const std::string& text,
                               const engine::SolveResult& served,
                               std::vector<std::string> witnesses) {
  auto alias = std::make_shared<ExactAlias>();
  alias->hash = exact_hash(key.problem, key.bound, key.backend, text);
  alias->key = key;
  alias->text = text;
  alias->witnesses = std::move(witnesses);
  const std::size_t bytes = approx_bytes(*alias);
  Shard& shard = *shards_[shard_index(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return;
  Entry& e = *it->second;
  // A full entry makes room by dropping its oldest alias, so a spelling
  // that keeps coming back (say, the original text after a burst of
  // renamed ones) still gets one.
  const bool full = e.aliases.size() >= kMaxAliasesPerEntry;
  const std::size_t freed = full ? approx_bytes(*e.aliases.front()) : 0;
  // The entry must still hold the values the hit served: it may have
  // been evicted and re-solved since, with another optimal witness.
  if (e.bytes - freed + bytes > byte_budget_per_shard_ ||
      !same_values(*e.result, served))
    return;
  alias->result = e.result;
  {
    AliasStripe& stripe = stripe_of(alias->hash);
    std::lock_guard<std::mutex> stripe_lock(stripe.mu);
    // An occupied slot is this text attached under another key or a
    // digest collision; either way the incumbent stays.
    if (!stripe.index.emplace(alias->hash, alias).second) return;
  }
  if (full) {
    unpublish(e.aliases.front());
    e.aliases.erase(e.aliases.begin());
    e.bytes -= freed;
    shard.bytes -= freed;
  }
  e.aliases.push_back(std::move(alias));
  e.bytes += bytes;
  shard.bytes += bytes;
  evict_to_budget(shard);
}

void ResultCache::unpublish(const std::shared_ptr<const ExactAlias>& a) {
  AliasStripe& stripe = stripe_of(a->hash);
  std::lock_guard<std::mutex> lock(stripe.mu);
  const auto it = stripe.index.find(a->hash);
  if (it != stripe.index.end() && it->second == a) stripe.index.erase(it);
}

void ResultCache::drop_aliases(const Entry& e) {
  for (const auto& a : e.aliases) unpublish(a);
}

void ResultCache::evict_to_budget(Shard& shard) {
  while (!shard.lru.empty() && (shard.lru.size() > entry_budget_per_shard_ ||
                                shard.bytes > byte_budget_per_shard_)) {
    const Entry& victim = shard.lru.back();
    drop_aliases(victim);
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_->add(1);
  }
}

std::vector<ResultCache::ExportedEntry> ResultCache::export_entries() const {
  std::vector<ExportedEntry> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it)
      out.push_back({it->key, it->det, it->prob, it->result});
  }
  return out;
}

ResultCache::Stats ResultCache::stats() const {
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

void ResultCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& e : shard->lru) drop_aliases(e);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

}  // namespace atcd::service
