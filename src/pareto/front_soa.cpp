#include "pareto/front_soa.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace atcd {

namespace {

constexpr std::uint32_t words_per_attack(std::size_t nbits) {
  return static_cast<std::uint32_t>((nbits + 63) / 64);
}

}  // namespace

TripleBuf TripleBuf::from_aos(const std::vector<AttrTriple>& xs,
                              std::size_t nbits) {
  TripleBuf b(words_per_attack(nbits));
  b.reserve(xs.size());
  for (const auto& x : xs) {
    const std::size_t r = b.push_zero(x.t.cost, x.t.damage, x.t.act);
    std::uint64_t* w = b.witness(r);
    const std::size_t nw = x.witness.word_count();
    for (std::size_t k = 0; k < nw; ++k) w[k] = x.witness.word(k);
  }
  return b;
}

std::vector<AttrTriple> TripleBuf::to_aos(std::size_t nbits) const {
  std::vector<AttrTriple> xs;
  xs.reserve(size());
  for (std::size_t r = 0; r < size(); ++r) {
    AttrTriple x;
    x.t = {cost[r], damage[r], act[r]};
    x.witness = DynBitset(nbits);
    const std::uint64_t* w = witness(r);
    for (std::size_t k = 0; k < x.witness.word_count(); ++k)
      x.witness.set_word(k, w[k]);
    xs.push_back(std::move(x));
  }
  return xs;
}

void combine_soa(const TripleView& a, const TripleView& b, NodeType gate,
                 TripleBuf* out, double budget) {
  const std::uint32_t wpa = out->wpa();
  const std::size_t n = a.n * b.n;
  out->cost.resize(n);
  out->damage.resize(n);
  out->act.resize(n);
  out->wit.resize(n * wpa);
  const bool is_and = gate == NodeType::AND;
  std::size_t r = 0;
  for (std::size_t i = 0; i < a.n; ++i) {
    const double ca = a.cost[i];
    const double da = a.damage[i];
    const double pa = a.act[i];
    const std::uint64_t* wa = a.wit + i * wpa;
    for (std::size_t j = 0; j < b.n; ++j) {
      const double c = ca + b.cost[j];
      // Over-budget rows are exactly the ones prune's min_U filter drops
      // before sorting, so eliding them here — before paying the witness
      // OR — changes nothing downstream.  The surviving rows keep their
      // a-major relative order.
      if (c > budget) continue;
      out->cost[r] = c;
      out->damage[r] = da + b.damage[j];
      const double pb = b.act[j];
      out->act[r] = is_and ? pa * pb : pa + pb - pa * pb;
      std::uint64_t* w = out->wit.data() + r * wpa;
      const std::uint64_t* wb = b.wit + j * wpa;
      for (std::uint32_t k = 0; k < wpa; ++k) w[k] = wa[k] | wb[k];
      ++r;
    }
  }
  out->cost.resize(r);
  out->damage.resize(r);
  out->act.resize(r);
  out->wit.resize(r * wpa);
}

void prune_select(const TripleView& v, double budget, PruneScratch* scratch) {
  const std::size_t n = v.n;
  const double* cost = v.cost;
  const double* damage = v.damage;
  const double* act = v.act;

  // Budget filter, preserving the original order (erase_if is stable).
  auto& idx = scratch->idx;
  idx.clear();
  idx.reserve(n);
  if (budget != kNoBudget) {
    for (std::size_t i = 0; i < n; ++i)
      if (cost[i] <= budget) idx.push_back(static_cast<std::uint32_t>(i));
  } else {
    idx.resize(n);
    std::iota(idx.begin(), idx.end(), 0u);
  }

  // Same comparator as prune_min, moving u32 indices instead of triples.
  // Any stable sort yields the same permutation under the same
  // comparator, so the small-input insertion sort below is
  // output-identical to std::stable_sort — it just skips the temporary
  // buffer std::stable_sort allocates per call, which dominates on the
  // few-element fronts of budget-pruned sweeps.
  const auto cmp = [&](std::uint32_t x, std::uint32_t y) {
    if (cost[x] != cost[y]) return cost[x] < cost[y];
    if (damage[x] != damage[y]) return damage[x] > damage[y];
    return act[x] > act[y];
  };
  if (idx.size() <= 32) {
    for (std::size_t i = 1; i < idx.size(); ++i) {
      const std::uint32_t key = idx[i];
      std::size_t j = i;
      for (; j > 0 && cmp(key, idx[j - 1]); --j) idx[j] = idx[j - 1];
      idx[j] = key;
    }
  } else {
    std::stable_sort(idx.begin(), idx.end(), cmp);
  }

  // Staircase of (damage, act) maxima as a flat sorted vector (damage asc,
  // act strictly desc) — the same query / erase-covered / insert logic as
  // prune_min's std::map, without per-node allocations.  Erases are cheap:
  // covered entries are contiguous and the staircase stays small.
  auto& stair = scratch->stair;
  stair.clear();
  std::size_t kept = 0;
  for (const std::uint32_t i : idx) {
    const double d = damage[i];
    const double a = act[i];
    auto pos = std::lower_bound(
        stair.begin(), stair.end(), d,
        [](const std::pair<double, double>& e, double key) {
          return e.first < key;
        });
    if (pos != stair.end() && pos->second >= a)
      continue;  // dominated by, or value-equal to, an earlier element
    idx[kept++] = i;
    auto lo = pos;
    while (lo != stair.begin() && std::prev(lo)->second <= a) --lo;
    pos = stair.erase(lo, pos);
    if (pos != stair.end() && pos->first == d)
      pos->second = a;  // same damage, strictly larger act
    else
      stair.insert(pos, {d, a});
  }
  idx.resize(kept);
}

TripleView TripleFrontStack::from_top(std::size_t k) const {
  const std::size_t f = frame_off_.size() - 1 - k;
  const std::size_t b = frame_off_[f];
  const std::size_t e =
      f + 1 < frame_off_.size() ? frame_off_[f + 1] : cost_.size();
  return {cost_.data() + b, damage_.data() + b, act_.data() + b,
          wit_.data() + b * wpa_, e - b};
}

void TripleFrontStack::push(const TripleBuf& buf) {
  frame_off_.push_back(cost_.size());
  cost_.insert(cost_.end(), buf.cost.begin(), buf.cost.end());
  damage_.insert(damage_.end(), buf.damage.begin(), buf.damage.end());
  act_.insert(act_.end(), buf.act.begin(), buf.act.end());
  wit_.insert(wit_.end(), buf.wit.begin(), buf.wit.end());
}

void TripleFrontStack::push_select(const TripleView& v,
                                   const std::vector<std::uint32_t>& rows) {
  frame_off_.push_back(cost_.size());
  const std::size_t kept = rows.size();
  cost_.reserve(cost_.size() + kept);
  damage_.reserve(damage_.size() + kept);
  act_.reserve(act_.size() + kept);
  wit_.reserve(wit_.size() + kept * wpa_);
  // insert(), not resize()+write: resize would value-initialize the grown
  // region first, doubling the pool's write traffic on every push.
  for (const std::uint32_t i : rows) {
    cost_.push_back(v.cost[i]);
    damage_.push_back(v.damage[i]);
    act_.push_back(v.act[i]);
    wit_.insert(wit_.end(), v.wit + std::size_t{i} * wpa_,
                v.wit + (std::size_t{i} + 1) * wpa_);
  }
}

void TripleFrontStack::push_view(const TripleView& v) {
  frame_off_.push_back(cost_.size());
  if (v.n == 0) return;
  cost_.insert(cost_.end(), v.cost, v.cost + v.n);
  damage_.insert(damage_.end(), v.damage, v.damage + v.n);
  act_.insert(act_.end(), v.act, v.act + v.n);
  wit_.insert(wit_.end(), v.wit, v.wit + v.n * wpa_);
}

void TripleFrontStack::compact_top(const std::vector<std::uint32_t>& rows,
                                   TripleBuf* bounce) {
  // rows are frame-relative and may select in any order, so an in-place
  // forward gather could read overwritten slots — bounce through a
  // scratch buffer (kept rows only, typically a handful).
  bounce->set_wpa(wpa_);
  bounce->clear();
  bounce->reserve(rows.size());
  const TripleView top = from_top(0);
  for (const std::uint32_t i : rows) {
    const std::size_t r = bounce->push_zero(top.cost[i], top.damage[i], top.act[i]);
    if (wpa_)
      std::memcpy(bounce->witness(r), top.wit + std::size_t{i} * wpa_,
                  std::size_t{wpa_} * sizeof(std::uint64_t));
  }
  pop(1);
  push(*bounce);
}

double* TripleFrontStack::top_damage() {
  return damage_.data() + frame_off_.back();
}

void TripleFrontStack::pop(std::size_t k) {
  const std::size_t f = frame_off_.size() - k;
  const std::size_t b = frame_off_[f];
  cost_.resize(b);
  damage_.resize(b);
  act_.resize(b);
  wit_.resize(b * wpa_);
  frame_off_.resize(f);
}

std::vector<AttrTriple> TripleFrontStack::top_to_aos(std::size_t nbits) const {
  const TripleView v = from_top(0);
  std::vector<AttrTriple> xs;
  xs.reserve(v.n);
  for (std::size_t r = 0; r < v.n; ++r) {
    AttrTriple x;
    x.t = {v.cost[r], v.damage[r], v.act[r]};
    x.witness = DynBitset(nbits);
    const std::uint64_t* w = v.wit + r * wpa_;
    for (std::size_t k = 0; k < x.witness.word_count(); ++k)
      x.witness.set_word(k, w[k]);
    xs.push_back(std::move(x));
  }
  return xs;
}

void TripleFrontStack::clear() {
  cost_.clear();
  damage_.clear();
  act_.clear();
  wit_.clear();
  frame_off_.clear();
}

// ---------------------------------------------------------------------------
// FrontSoaStore
// ---------------------------------------------------------------------------

std::uint32_t FrontSoaStore::add(const Front2d& f) {
  Meta m;
  m.point_off = xs_.size();
  m.wit_off = wit_.size();
  m.count = static_cast<std::uint32_t>(f.size());
  m.nbits = f.empty() ? 0 : static_cast<std::uint32_t>(f[0].witness.size());
  const std::uint32_t wpa = words_per_attack(m.nbits);
  for (const auto& p : f) {
    xs_.push_back(p.value.cost);
    ys_.push_back(p.value.damage);
    const std::size_t base = wit_.size();
    wit_.resize(base + wpa, 0);
    const std::size_t nw = p.witness.word_count();
    for (std::size_t k = 0; k < nw && k < wpa; ++k)
      wit_[base + k] = p.witness.word(k);
  }
  meta_.push_back(m);
  return static_cast<std::uint32_t>(meta_.size() - 1);
}

Front2d FrontSoaStore::get(std::uint32_t i) const {
  const Meta& m = meta_[i];
  const std::uint32_t wpa = words_per_attack(m.nbits);
  std::vector<FrontPoint> pts;
  pts.reserve(m.count);
  for (std::uint32_t r = 0; r < m.count; ++r) {
    FrontPoint p;
    p.value = {xs_[m.point_off + r], ys_[m.point_off + r]};
    p.witness = DynBitset(m.nbits);
    const std::uint64_t* w = wit_.data() + m.wit_off + std::size_t{r} * wpa;
    for (std::size_t k = 0; k < p.witness.word_count(); ++k)
      p.witness.set_word(k, w[k]);
    pts.push_back(std::move(p));
  }
  // A stored front is already minimal and in front order, so the sweep
  // keeps every point; of_candidates re-establishes the class invariant.
  return Front2d::of_candidates(std::move(pts), assume_sorted);
}

namespace {

constexpr std::uint32_t kStoreMagic = 0x53465441;  // "ATFS" little-endian
constexpr std::uint32_t kStoreVersion = 1;

template <typename T>
void append_raw(std::string* out, const T* p, std::size_t n) {
  out->append(reinterpret_cast<const char*>(p), n * sizeof(T));
}

template <typename T>
bool read_raw(const std::string& in, std::size_t* at, T* p, std::size_t n) {
  const std::size_t bytes = n * sizeof(T);
  if (in.size() - *at < bytes) return false;
  // An empty column has a null data(); memcpy forbids null even for 0.
  if (bytes != 0) std::memcpy(p, in.data() + *at, bytes);
  *at += bytes;
  return true;
}

}  // namespace

std::string FrontSoaStore::to_bytes() const {
  std::string out;
  const std::uint64_t counts[3] = {meta_.size(), xs_.size(), wit_.size()};
  out.reserve(sizeof(kStoreMagic) + sizeof(kStoreVersion) + sizeof(counts) +
              meta_.size() * 24 + xs_.size() * 16 + wit_.size() * 8);
  append_raw(&out, &kStoreMagic, 1);
  append_raw(&out, &kStoreVersion, 1);
  append_raw(&out, counts, 3);
  for (const Meta& m : meta_) {
    append_raw(&out, &m.point_off, 1);
    append_raw(&out, &m.wit_off, 1);
    append_raw(&out, &m.count, 1);
    append_raw(&out, &m.nbits, 1);
  }
  append_raw(&out, xs_.data(), xs_.size());
  append_raw(&out, ys_.data(), ys_.size());
  append_raw(&out, wit_.data(), wit_.size());
  return out;
}

std::optional<FrontSoaStore> FrontSoaStore::from_bytes(
    const std::string& bytes) {
  std::size_t at = 0;
  std::uint32_t magic = 0, version = 0;
  std::uint64_t counts[3] = {0, 0, 0};
  if (!read_raw(bytes, &at, &magic, 1) || magic != kStoreMagic) return {};
  if (!read_raw(bytes, &at, &version, 1) || version != kStoreVersion)
    return {};
  if (!read_raw(bytes, &at, counts, 3)) return {};
  // Reject images whose declared sizes cannot fit in the remaining bytes
  // before allocating.
  const std::uint64_t need =
      counts[0] * 24 + counts[1] * 16 + counts[2] * 8;
  if (bytes.size() - at != need) return {};

  FrontSoaStore s;
  s.meta_.resize(counts[0]);
  for (Meta& m : s.meta_) {
    if (!read_raw(bytes, &at, &m.point_off, 1) ||
        !read_raw(bytes, &at, &m.wit_off, 1) ||
        !read_raw(bytes, &at, &m.count, 1) ||
        !read_raw(bytes, &at, &m.nbits, 1))
      return {};
  }
  s.xs_.resize(counts[1]);
  s.ys_.resize(counts[1]);
  s.wit_.resize(counts[2]);
  if (!read_raw(bytes, &at, s.xs_.data(), s.xs_.size()) ||
      !read_raw(bytes, &at, s.ys_.data(), s.ys_.size()) ||
      !read_raw(bytes, &at, s.wit_.data(), s.wit_.size()))
    return {};

  // Span consistency: every front must lie inside the shared columns.
  for (const Meta& m : s.meta_) {
    const std::uint64_t wpa = words_per_attack(m.nbits);
    if (m.point_off + m.count > s.xs_.size()) return {};
    if (m.wit_off + std::uint64_t{m.count} * wpa > s.wit_.size()) return {};
  }
  return s;
}

}  // namespace atcd
