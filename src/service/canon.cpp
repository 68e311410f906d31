#include "service/canon.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "service/hash_mix.hpp"

namespace atcd::service {
namespace {

/// Borrowed view of a decorated model of either kind.
struct View {
  const AttackTree& tree;
  const std::vector<double>& cost;
  const std::vector<double>& damage;
  const std::vector<double>* prob;  // nullptr for deterministic models
};

std::uint64_t initial_color(const View& m, NodeId v) {
  const auto& n = m.tree.node(v);
  std::uint64_t c = mix64(0x5eedull, static_cast<std::uint64_t>(n.type));
  c = mix64(c, double_bits(m.damage[v]));
  if (n.type == NodeType::BAS) {
    c = mix64(c, double_bits(m.cost[n.bas_index]));
    if (m.prob) c = mix64(c, double_bits((*m.prob)[n.bas_index]));
  } else {
    c = mix64(c, n.children.size());
  }
  return c;
}

std::uint64_t fold_sorted(std::uint64_t seed, std::vector<std::uint64_t>& v) {
  std::sort(v.begin(), v.end());
  std::uint64_t h = seed;
  for (std::uint64_t x : v) h = mix64(h, x);
  return h;
}

std::size_t distinct_count(const std::vector<std::uint64_t>& colors) {
  return std::unordered_set<std::uint64_t>(colors.begin(), colors.end()).size();
}

/// WL color refinement over the (bidirectional) DAG.  Folding the old
/// color into the new one makes the partition monotonically finer, so
/// iterating until the distinct-color count stops growing terminates.
std::vector<std::uint64_t> refined_colors(const View& m) {
  const std::size_t n = m.tree.node_count();
  std::vector<std::uint64_t> color(n);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v)
    color[v] = initial_color(m, v);

  std::vector<std::uint64_t> next(n), buf;
  std::size_t distinct = distinct_count(color);
  for (std::size_t round = 0; round < n; ++round) {
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      const auto& node = m.tree.node(v);
      std::uint64_t c = mix64(color[v], 0xC01Dull);
      buf.clear();
      for (NodeId ch : node.children) buf.push_back(color[ch]);
      c = mix64(c, fold_sorted(0xC41Dull, buf));
      buf.clear();
      for (NodeId p : node.parents) buf.push_back(color[p]);
      c = mix64(c, fold_sorted(0xFA7Eull, buf));
      next[v] = c;
    }
    color.swap(next);
    const std::size_t d = distinct_count(color);
    if (d == distinct || d == n) break;
    distinct = d;
  }
  return color;
}

bool decorations_equal(const View& a, NodeId u, const View& b, NodeId v) {
  const auto& nu = a.tree.node(u);
  const auto& nv = b.tree.node(v);
  if (nu.type != nv.type) return false;
  if (a.damage[u] != b.damage[v]) return false;
  if (nu.type == NodeType::BAS) {
    if (a.cost[nu.bas_index] != b.cost[nv.bas_index]) return false;
    if (a.prob && (*a.prob)[nu.bas_index] != (*b.prob)[nv.bas_index])
      return false;
  }
  return true;
}

/// Color-guided isomorphism matching: map a's nodes in topological
/// (children-first) order onto same-colored b-nodes whose mapped children
/// multiset matches exactly.  Backtracks over ties with a step budget;
/// when node counts are equal a children-preserving injection is a full
/// isomorphism, so a completed map is verified by construction.  Returns
/// the a-node -> b-node map, empty on failure.
std::vector<NodeId> find_isomorphism(const View& a,
                                     const std::vector<std::uint64_t>& ca,
                                     const View& b,
                                     const std::vector<std::uint64_t>& cb) {
  const std::size_t n = a.tree.node_count();
  std::unordered_map<std::uint64_t, std::vector<NodeId>> by_color;
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v)
    by_color[cb[v]].push_back(v);

  const std::vector<NodeId>& order = a.tree.topological_order();
  std::vector<NodeId> map(n, kNoNode);
  std::vector<bool> used(n, false);
  std::vector<NodeId> mapped_children, b_children;

  auto candidate_ok = [&](NodeId u, NodeId v) {
    if (!decorations_equal(a, u, b, v)) return false;
    const auto& cu = a.tree.children(u);
    const auto& cv = b.tree.children(v);
    if (cu.size() != cv.size()) return false;
    mapped_children.clear();
    for (NodeId ch : cu) mapped_children.push_back(map[ch]);
    b_children = cv;
    std::sort(mapped_children.begin(), mapped_children.end());
    std::sort(b_children.begin(), b_children.end());
    return mapped_children == b_children;
  };

  // Explicit stack of (position in order, next candidate index to try).
  std::vector<std::size_t> cand_pos(n, 0);
  std::size_t pos = 0;
  std::size_t budget = 200000;
  while (pos < n) {
    const NodeId u = order[pos];
    const auto it = by_color.find(ca[u]);
    if (it == by_color.end()) return {};
    const std::vector<NodeId>& cands = it->second;
    bool advanced = false;
    while (cand_pos[pos] < cands.size()) {
      const NodeId v = cands[cand_pos[pos]++];
      if (used[v]) continue;
      if (budget-- == 0) return {};
      if (!candidate_ok(u, v)) continue;
      map[u] = v;
      used[v] = true;
      ++pos;
      advanced = true;
      break;
    }
    if (advanced) continue;
    // Exhausted candidates: backtrack.
    cand_pos[pos] = 0;
    if (pos == 0) return {};
    --pos;
    const NodeId prev = order[pos];
    used[map[prev]] = false;
    map[prev] = kNoNode;
  }
  if (map[a.tree.root()] != b.tree.root()) return {};
  return map;
}

CanonHash hash_view(const View& m) {
  std::vector<std::uint64_t> colors = refined_colors(m);
  std::uint64_t h = mix64(0xA7CDull, m.prob ? 2 : 1);
  h = mix64(h, m.tree.node_count());
  h = mix64(h, m.tree.bas_count());
  h = mix64(h, m.tree.edge_count());
  h = mix64(h, colors[m.tree.root()]);
  return mix64(h, fold_sorted(0x0DDBall, colors));
}

std::vector<NodeId> iso_view(const View& a, const View& b) {
  if ((a.prob == nullptr) != (b.prob == nullptr)) return {};
  if (a.tree.node_count() != b.tree.node_count()) return {};
  if (a.tree.bas_count() != b.tree.bas_count()) return {};
  if (a.tree.edge_count() != b.tree.edge_count()) return {};
  std::vector<std::uint64_t> ca = refined_colors(a);
  std::vector<std::uint64_t> cb = refined_colors(b);
  std::vector<std::uint64_t> sa = ca, sb = cb;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  if (sa != sb) return {};
  return find_isomorphism(a, ca, b, cb);
}

bool equal_view(const View& a, const View& b) {
  return !iso_view(a, b).empty();
}

}  // namespace

CanonHash canonical_hash(const AttackTree& t, const std::vector<double>& cost,
                         const std::vector<double>& damage,
                         const std::vector<double>* prob) {
  return hash_view(View{t, cost, damage, prob});
}

CanonHash canonical_hash(const CdAt& m) {
  return hash_view(View{m.tree, m.cost, m.damage, nullptr});
}

CanonHash canonical_hash(const CdpAt& m) {
  return hash_view(View{m.tree, m.cost, m.damage, &m.prob});
}

bool equal_canonical(const AttackTree& ta, const std::vector<double>& cost_a,
                     const std::vector<double>& damage_a,
                     const std::vector<double>* prob_a, const AttackTree& tb,
                     const std::vector<double>& cost_b,
                     const std::vector<double>& damage_b,
                     const std::vector<double>* prob_b) {
  return equal_view(View{ta, cost_a, damage_a, prob_a},
                    View{tb, cost_b, damage_b, prob_b});
}

bool equal_canonical(const CdAt& a, const CdAt& b) {
  return equal_view(View{a.tree, a.cost, a.damage, nullptr},
                    View{b.tree, b.cost, b.damage, nullptr});
}

bool equal_canonical(const CdpAt& a, const CdpAt& b) {
  return equal_view(View{a.tree, a.cost, a.damage, &a.prob},
                    View{b.tree, b.cost, b.damage, &b.prob});
}

std::vector<NodeId> canonical_isomorphism(const CdAt& a, const CdAt& b) {
  return iso_view(View{a.tree, a.cost, a.damage, nullptr},
                  View{b.tree, b.cost, b.damage, nullptr});
}

std::vector<NodeId> canonical_isomorphism(const CdpAt& a, const CdpAt& b) {
  return iso_view(View{a.tree, a.cost, a.damage, &a.prob},
                  View{b.tree, b.cost, b.damage, &b.prob});
}

// ---------------------------------------------------------------------------
// Merkle fingerprints of treelike models.
// ---------------------------------------------------------------------------

std::uint64_t treelike_fingerprint(const AttackTree& tree,
                                   const std::vector<double>& cost,
                                   const std::vector<double>& damage,
                                   const std::vector<double>* prob) {
  std::vector<std::uint64_t> node_hash;
  std::vector<char> node_valid;
  return treelike_fingerprint_update(tree, cost, damage, prob, &node_hash,
                                     &node_valid);
}

std::uint64_t treelike_fingerprint_update(
    const AttackTree& tree, const std::vector<double>& cost,
    const std::vector<double>& damage, const std::vector<double>* prob,
    std::vector<std::uint64_t>* node_hash, std::vector<char>* node_valid) {
  if (!tree.finalized() || !tree.is_treelike()) return 0;
  const std::size_t n = tree.node_count();
  if (node_hash->size() != n || node_valid->size() != n) {
    node_hash->assign(n, 0);
    node_valid->assign(n, 0);
  }
  std::vector<std::uint64_t>& h = *node_hash;
  std::vector<std::uint64_t> buf;
  for (NodeId v : tree.topological_order()) {
    if ((*node_valid)[v]) continue;
    const auto& node = tree.node(v);
    if (node.type == NodeType::BAS) {
      h[v] = merkle_bas_hash(cost[node.bas_index], damage[v],
                             prob ? (*prob)[node.bas_index] : 1.0);
    } else {
      buf.clear();
      for (NodeId c : node.children) buf.push_back(h[c]);
      std::sort(buf.begin(), buf.end());
      std::uint64_t g =
          merkle_gate_seed(node.type, damage[v], node.children.size());
      for (std::uint64_t ch : buf) g = mix64(g, ch);
      h[v] = g;
    }
    (*node_valid)[v] = 1;
  }
  return h[tree.root()];
}

CanonHash model_fingerprint(const CdAt& m) {
  return m.tree.is_treelike()
             ? treelike_fingerprint(m.tree, m.cost, m.damage, nullptr)
             : canonical_hash(m);
}

CanonHash model_fingerprint(const CdpAt& m) {
  return m.tree.is_treelike()
             ? treelike_fingerprint(m.tree, m.cost, m.damage, &m.prob)
             : canonical_hash(m);
}

}  // namespace atcd::service
