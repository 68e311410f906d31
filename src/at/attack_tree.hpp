#pragma once
/// \file attack_tree.hpp
/// The attack-tree (AT) data structure of the paper, Definition 1:
/// a rooted directed acyclic graph whose nodes are typed BAS / OR / AND,
/// where exactly the leaves are BASs.
///
/// Despite the name an AT is not necessarily a tree; when the underlying
/// DAG is a tree it is called *treelike*, otherwise *DAG-like*.  Several
/// engines (the bottom-up ones) are only correct on treelike ATs, so the
/// class exposes an O(|N|+|E|) treelike test.
///
/// Node identity is a dense index NodeId in [0, node_count()).  BASs are
/// additionally given a dense *BAS index* in [0, bas_count()) in order of
/// creation; attacks (util/bitset.hpp) are indexed by BAS index.
///
/// Names are unique.  An open-addressing table of NodeIds (about 8 bytes
/// per node, keys compared against the nodes' own names) makes find()
/// and the duplicate checks of add_bas()/add_gate() O(1), so building a
/// model costs linear time in its size.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace atcd {

/// Node type, Definition 1.  gamma(v) = BAS iff v is a leaf.
enum class NodeType : std::uint8_t { BAS, OR, AND };

/// Returns "BAS" / "OR" / "AND".
const char* to_string(NodeType t);

using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = ~NodeId{0};

/// A rooted DAG with BAS/OR/AND nodes.
///
/// Build-up protocol: add nodes with add_bas()/add_gate(), children must
/// already exist (this makes cycles impossible by construction), then call
/// set_root() (or rely on the single parentless node) and finalize().
/// finalize() validates the model and computes derived data (topological
/// order, parent lists, BAS list, treelike flag).  Analyses require a
/// finalized tree.
class AttackTree {
 public:
  /// Per-node record.
  struct Node {
    NodeType type = NodeType::BAS;
    std::string name;
    std::vector<NodeId> children;  ///< empty iff type == BAS
    std::vector<NodeId> parents;   ///< filled by finalize()
    std::uint32_t bas_index = 0;   ///< dense index among BASs (BAS only)
  };

  AttackTree() = default;

  /// Adds a leaf node.  \p name must be unique and non-empty.
  NodeId add_bas(std::string name);

  /// Adds an internal node of type \p type (OR or AND) over \p children.
  /// Children must be existing node ids.  At least one child is required;
  /// single-child gates are allowed (they occur in published case studies
  /// as chain nodes).
  NodeId add_gate(NodeType type, std::string name,
                  std::vector<NodeId> children);

  /// Declares the root explicitly.  Optional if exactly one node has no
  /// parent at finalize() time.
  void set_root(NodeId v);

  /// Validates and freezes the structure.  Throws ModelError on: empty
  /// tree, no/ambiguous root, nodes unreachable from the root, or a gate
  /// with zero children.  Idempotent.
  void finalize();

  bool finalized() const { return finalized_; }

  // ---- Introspection (valid after finalize(), except counts/name). ----

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t bas_count() const { return bas_ids_.size(); }

  const Node& node(NodeId v) const { return nodes_.at(v); }
  NodeType type(NodeId v) const { return nodes_.at(v).type; }
  bool is_bas(NodeId v) const { return type(v) == NodeType::BAS; }
  const std::string& name(NodeId v) const { return nodes_.at(v).name; }
  const std::vector<NodeId>& children(NodeId v) const {
    return nodes_.at(v).children;
  }
  const std::vector<NodeId>& parents(NodeId v) const {
    return nodes_.at(v).parents;
  }

  NodeId root() const { return root_; }

  /// Node ids of all BASs, in BAS-index order.
  const std::vector<NodeId>& bas_ids() const { return bas_ids_; }

  /// Dense BAS index of leaf \p v.  Precondition: is_bas(v).
  std::uint32_t bas_index(NodeId v) const { return nodes_.at(v).bas_index; }

  /// Node id of the BAS with dense index \p i.
  NodeId bas_id(std::uint32_t i) const { return bas_ids_.at(i); }

  /// Looks a node up by name in O(1).
  std::optional<NodeId> find(std::string_view name) const;

  /// True iff every node has at most one parent (and hence the DAG is a
  /// tree rooted at root()).
  bool is_treelike() const { return treelike_; }

  /// Children-before-parents order covering all nodes reachable from the
  /// root (i.e. all nodes, by the finalize() validation).
  const std::vector<NodeId>& topological_order() const { return topo_; }

  /// Number of edges.
  std::size_t edge_count() const { return edge_count_; }

  /// Process-unique id of this tree's frozen structure, assigned by
  /// finalize() (0 before).  Copies of a finalized tree share the id —
  /// the structure can never diverge again — so it is a sound cache key
  /// for structure-derived data (e.g. the arena mirror) across
  /// copy-on-write model clones.
  std::uint64_t structure_id() const { return structure_id_; }

 private:
  void require_not_finalized() const;
  /// The slot of name_slots_ holding \p name, or the empty slot where it
  /// would go.  Precondition: name_slots_ is not empty.
  std::size_t name_slot(std::string_view name) const;
  /// Validates a new node's \p name and returns the free slot it takes
  /// once the node exists; grows the table first.  Throws ModelError on
  /// an empty or duplicate name.
  std::size_t claim_name_slot(const std::string& name);

  std::vector<Node> nodes_;
  /// Name index: a power-of-two table of NodeIds, kNoNode = empty,
  /// linear probing, at most 3/4 full.
  std::vector<NodeId> name_slots_;
  std::vector<NodeId> bas_ids_;
  std::vector<NodeId> topo_;
  NodeId root_ = kNoNode;
  std::size_t edge_count_ = 0;
  std::uint64_t structure_id_ = 0;
  bool treelike_ = false;
  bool finalized_ = false;
};

}  // namespace atcd
