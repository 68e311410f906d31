#include "at/attack_tree.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <unordered_set>

namespace atcd {

const char* to_string(NodeType t) {
  switch (t) {
    case NodeType::BAS:
      return "BAS";
    case NodeType::OR:
      return "OR";
    case NodeType::AND:
      return "AND";
  }
  return "?";
}

void AttackTree::require_not_finalized() const {
  if (finalized_)
    throw ModelError("AttackTree: cannot modify a finalized tree");
}

std::size_t AttackTree::name_slot(std::string_view name) const {
  const std::size_t mask = name_slots_.size() - 1;
  for (std::size_t i = std::hash<std::string_view>{}(name) & mask;;
       i = (i + 1) & mask) {
    const NodeId id = name_slots_[i];
    if (id == kNoNode || nodes_[id].name == name) return i;
  }
}

std::size_t AttackTree::claim_name_slot(const std::string& name) {
  if (name.empty()) throw ModelError("AttackTree: node name must be non-empty");
  if ((nodes_.size() + 1) * 4 > name_slots_.size() * 3) {
    name_slots_.assign(std::max<std::size_t>(16, name_slots_.size() * 2),
                       kNoNode);
    for (NodeId v = 0; v < nodes_.size(); ++v)
      name_slots_[name_slot(nodes_[v].name)] = v;
  }
  const std::size_t slot = name_slot(name);
  if (name_slots_[slot] != kNoNode)
    throw ModelError("AttackTree: duplicate node name '" + name + "'");
  return slot;
}

NodeId AttackTree::add_bas(std::string name) {
  require_not_finalized();
  const std::size_t slot = claim_name_slot(name);
  Node n;
  n.type = NodeType::BAS;
  n.name = std::move(name);
  n.bas_index = static_cast<std::uint32_t>(bas_ids_.size());
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  bas_ids_.push_back(id);
  name_slots_[slot] = id;
  return id;
}

NodeId AttackTree::add_gate(NodeType type, std::string name,
                            std::vector<NodeId> children) {
  require_not_finalized();
  if (type == NodeType::BAS)
    throw ModelError("AttackTree: add_gate requires OR or AND");
  const std::size_t slot = claim_name_slot(name);
  if (children.empty())
    throw ModelError("AttackTree: gate '" + name + "' must have children");
  std::unordered_set<NodeId> seen;
  for (NodeId c : children) {
    if (c >= nodes_.size())
      throw ModelError("AttackTree: gate '" + name + "' references unknown child");
    if (!seen.insert(c).second)
      throw ModelError("AttackTree: gate '" + name + "' has duplicate child '" +
                       nodes_[c].name + "'");
  }
  Node n;
  n.type = type;
  n.name = std::move(name);
  n.children = std::move(children);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  name_slots_[slot] = id;
  return id;
}

void AttackTree::set_root(NodeId v) {
  require_not_finalized();
  if (v >= nodes_.size()) throw ModelError("AttackTree: set_root on unknown node");
  root_ = v;
}

std::optional<NodeId> AttackTree::find(std::string_view name) const {
  if (name_slots_.empty()) return std::nullopt;
  const NodeId id = name_slots_[name_slot(name)];
  if (id == kNoNode) return std::nullopt;
  return id;
}

void AttackTree::finalize() {
  if (finalized_) return;
  if (nodes_.empty()) throw ModelError("AttackTree: empty tree");

  // Parent lists and edge count.
  edge_count_ = 0;
  for (auto& n : nodes_) n.parents.clear();
  for (NodeId v = 0; v < nodes_.size(); ++v) {
    for (NodeId c : nodes_[v].children) {
      nodes_[c].parents.push_back(v);
      ++edge_count_;
    }
  }

  // Root: explicit, or the unique parentless node.
  if (root_ == kNoNode) {
    NodeId candidate = kNoNode;
    for (NodeId v = 0; v < nodes_.size(); ++v) {
      if (nodes_[v].parents.empty()) {
        if (candidate != kNoNode)
          throw ModelError(
              "AttackTree: multiple parentless nodes ('" +
              nodes_[candidate].name + "', '" + nodes_[v].name +
              "'); call set_root()");
        candidate = v;
      }
    }
    if (candidate == kNoNode)
      throw ModelError("AttackTree: no parentless node found for root");
    root_ = candidate;
  }

  // Reachability from the root; every node must be part of the model.
  // Children always precede their parent in creation order is NOT
  // guaranteed for reachability, so do an explicit DFS.
  std::vector<char> reached(nodes_.size(), 0);
  std::vector<NodeId> stack{root_};
  reached[root_] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId c : nodes_[v].children) {
      if (!reached[c]) {
        reached[c] = 1;
        stack.push_back(c);
      }
    }
  }
  for (NodeId v = 0; v < nodes_.size(); ++v)
    if (!reached[v])
      throw ModelError("AttackTree: node '" + nodes_[v].name +
                       "' unreachable from root '" + nodes_[root_].name + "'");

  // Children are created before parents (add_gate checks ids exist), so
  // creation order is already a valid children-before-parents order.
  topo_.resize(nodes_.size());
  for (NodeId v = 0; v < nodes_.size(); ++v) topo_[v] = v;

  treelike_ = std::all_of(nodes_.begin(), nodes_.end(), [](const Node& n) {
    return n.parents.size() <= 1;
  });

  // Structure is immutable from here on; the id outlives copies (which
  // keep it — they can never diverge structurally).
  static std::atomic<std::uint64_t> next_structure_id{1};
  structure_id_ = next_structure_id.fetch_add(1, std::memory_order_relaxed);

  finalized_ = true;
}

}  // namespace atcd
