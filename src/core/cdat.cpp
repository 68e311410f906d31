#include "core/cdat.hpp"

#include <cmath>

#include "at/parser.hpp"
#include "at/transform.hpp"

namespace atcd {
namespace {

void validate_common(const AttackTree& t, const std::vector<double>& cost,
                     const std::vector<double>& damage) {
  if (!t.finalized()) throw ModelError("cd-AT: tree not finalized");
  if (cost.size() != t.bas_count())
    throw ModelError("cd-AT: cost vector size != number of BASs");
  if (damage.size() != t.node_count())
    throw ModelError("cd-AT: damage vector size != number of nodes");
  for (double c : cost)
    if (!(c >= 0.0)) throw ModelError("cd-AT: costs must be >= 0");
  for (double d : damage)
    if (!(d >= 0.0)) throw ModelError("cd-AT: damages must be >= 0");
}

double cost_sum(const AttackTree& t, const std::vector<double>& cost,
                const Attack& x) {
  if (x.size() != t.bas_count())
    throw ModelError("total_cost: attack size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (x.test(i)) sum += cost[i];
  return sum;
}

}  // namespace

void CdAt::validate() const { validate_common(tree, cost, damage); }

void CdpAt::validate() const {
  validate_common(tree, cost, damage);
  if (prob.size() != tree.bas_count())
    throw ModelError("cdp-AT: prob vector size != number of BASs");
  for (double p : prob)
    if (!(p >= 0.0 && p <= 1.0))
      throw ModelError("cdp-AT: probabilities must lie in [0,1]");
}

void parse_typed_model(const std::string& text, bool probabilistic,
                       std::shared_ptr<const CdAt>* det,
                       std::shared_ptr<const CdpAt>* prob) {
  ParsedModel parsed = parse_model(text);
  if (probabilistic) {
    auto m = std::make_shared<CdpAt>(
        CdpAt{std::move(parsed.tree), std::move(parsed.cost),
              std::move(parsed.damage), std::move(parsed.prob)});
    m->validate();
    *prob = std::move(m);
  } else {
    auto m = std::make_shared<CdAt>(CdAt{std::move(parsed.tree),
                                         std::move(parsed.cost),
                                         std::move(parsed.damage)});
    m->validate();
    *det = std::move(m);
  }
}

double total_cost(const CdAt& m, const Attack& x) {
  return cost_sum(m.tree, m.cost, x);
}

double total_cost(const CdpAt& m, const Attack& x) {
  return cost_sum(m.tree, m.cost, x);
}

double total_damage(const CdAt& m, const Attack& x) {
  const auto s = evaluate_structure(m.tree, x);
  double sum = 0.0;
  for (NodeId v = 0; v < m.tree.node_count(); ++v)
    if (s[v]) sum += m.damage[v];
  return sum;
}

std::vector<double> probabilistic_structure(const CdpAt& m, const Attack& x) {
  if (!m.tree.is_treelike())
    throw UnsupportedError(
        "probabilistic_structure: per-node products are only exact on "
        "treelike ATs; use the BDD engine for DAGs");
  if (x.size() != m.tree.bas_count())
    throw ModelError("probabilistic_structure: attack size mismatch");
  std::vector<double> ps(m.tree.node_count(), 0.0);
  for (NodeId v : m.tree.topological_order()) {
    const auto& n = m.tree.node(v);
    switch (n.type) {
      case NodeType::BAS:
        ps[v] = x.test(n.bas_index) ? m.prob[n.bas_index] : 0.0;
        break;
      case NodeType::OR: {
        // Fold with p ⋆ q = p + q - pq (eq. (8)) in child order — the
        // same association the bottom-up engine uses, so both code paths
        // produce bit-identical values (1 - Π(1-p) differs in ulps and
        // makes threshold queries disagree across engines).
        double p = 0.0;
        for (NodeId c : n.children) p = p + ps[c] - p * ps[c];
        ps[v] = p;
        break;
      }
      case NodeType::AND: {
        double p = 1.0;
        for (NodeId c : n.children) p *= ps[c];
        ps[v] = p;
        break;
      }
    }
  }
  return ps;
}

double expected_damage(const CdpAt& m, const Attack& x) {
  const auto ps = probabilistic_structure(m, x);
  double sum = 0.0;
  for (NodeId v = 0; v < m.tree.node_count(); ++v) sum += ps[v] * m.damage[v];
  return sum;
}

double expected_damage_exact(const CdpAt& m, const Attack& x,
                             std::size_t max_attempted) {
  if (x.size() != m.tree.bas_count())
    throw ModelError("expected_damage_exact: attack size mismatch");
  const auto attempted = x.ones();
  if (attempted.size() > max_attempted)
    throw CapacityError("expected_damage_exact: " +
                        std::to_string(attempted.size()) +
                        " attempted BASs exceeds the enumeration cap");
  const CdAt det{m.tree, m.cost, m.damage};
  double total = 0.0;
  const std::uint64_t n = std::uint64_t{1} << attempted.size();
  for (std::uint64_t mask = 0; mask < n; ++mask) {
    Attack y(m.tree.bas_count());
    double pr = 1.0;
    for (std::size_t i = 0; i < attempted.size(); ++i) {
      const double p = m.prob[attempted[i]];
      if (mask >> i & 1) {
        y.set(attempted[i]);
        pr *= p;
      } else {
        pr *= 1.0 - p;
      }
    }
    if (pr > 0.0) total += pr * total_damage(det, y);
  }
  return total;
}

double sample_damage(const CdpAt& m, const Attack& x, Rng& rng) {
  Attack y(m.tree.bas_count());
  for (std::size_t i = 0; i < x.size(); ++i)
    if (x.test(i) && rng.chance(m.prob[i])) y.set(i);
  return total_damage(CdAt{m.tree, m.cost, m.damage}, y);
}

CdAt with_internal_costs(const CdAt& m,
                         const std::vector<double>& internal_cost) {
  if (internal_cost.size() != m.tree.node_count())
    throw ModelError("with_internal_costs: size mismatch");
  for (NodeId v = 0; v < m.tree.node_count(); ++v)
    if (m.tree.is_bas(v) && internal_cost[v] != 0.0)
      throw ModelError(
          "with_internal_costs: BAS costs belong in CdAt::cost, entry must "
          "be 0 for '" + m.tree.name(v) + "'");

  CdAt out;
  std::vector<NodeId> map(m.tree.node_count(), kNoNode);
  std::vector<double> new_damage;  // grows with out.tree
  auto push_damage = [&new_damage](NodeId id, double d) {
    if (new_damage.size() <= id) new_damage.resize(id + 1, 0.0);
    new_damage[id] = d;
  };

  for (NodeId v : m.tree.topological_order()) {
    const auto& n = m.tree.node(v);
    if (n.type == NodeType::BAS) {
      const NodeId nv = out.tree.add_bas(n.name);
      out.cost.push_back(m.cost[n.bas_index]);
      map[v] = nv;
      push_damage(nv, m.damage[v]);
      continue;
    }
    std::vector<NodeId> cs;
    cs.reserve(n.children.size());
    for (NodeId c : n.children) cs.push_back(map[c]);

    if (internal_cost[v] == 0.0) {
      map[v] = out.tree.add_gate(n.type, n.name, cs);
      push_damage(map[v], m.damage[v]);
      continue;
    }
    // Fig. 2 rewrite: the node activates only if its gate condition holds
    // AND the dummy cost-BAS is paid.  The damage stays on the rewritten
    // node itself, NOT on the dummy (moving it there would change the
    // semantics — Fig. 2 right).
    const NodeId dummy = out.tree.add_bas(n.name + "#cost");
    out.cost.push_back(internal_cost[v]);
    push_damage(dummy, 0.0);
    if (n.type == NodeType::AND) {
      cs.push_back(dummy);
      map[v] = out.tree.add_gate(NodeType::AND, n.name, cs);
    } else {
      const NodeId inner = out.tree.add_gate(NodeType::OR, n.name + "#or", cs);
      push_damage(inner, 0.0);
      map[v] = out.tree.add_gate(NodeType::AND, n.name, {inner, dummy});
    }
    push_damage(map[v], m.damage[v]);
  }
  out.tree.set_root(map[m.tree.root()]);
  out.tree.finalize();
  new_damage.resize(out.tree.node_count(), 0.0);
  out.damage = std::move(new_damage);
  out.validate();
  return out;
}

CdAt binarize_model(const CdAt& m) {
  const auto r = binarize(m.tree);
  CdAt out;
  out.tree = r.tree;
  out.cost = m.cost;  // BAS order is preserved by binarize()
  out.damage.assign(r.tree.node_count(), 0.0);
  for (NodeId v = 0; v < m.tree.node_count(); ++v)
    out.damage[r.node_map[v]] = m.damage[v];
  out.validate();
  return out;
}

CdpAt binarize_model(const CdpAt& m) {
  const CdAt det = binarize_model(m.deterministic());
  CdpAt out{det.tree, det.cost, det.damage, m.prob};
  out.validate();
  return out;
}

CdpAt randomize_decorations(const AttackTree& t, Rng& rng) {
  CdpAt m;
  m.tree = t;
  m.cost.resize(t.bas_count());
  m.prob.resize(t.bas_count());
  m.damage.resize(t.node_count());
  for (auto& c : m.cost) c = static_cast<double>(rng.range(1, 10));
  for (auto& p : m.prob) p = 0.1 * static_cast<double>(rng.range(1, 10));
  for (auto& d : m.damage) d = static_cast<double>(rng.range(0, 10));
  return m;
}

}  // namespace atcd
