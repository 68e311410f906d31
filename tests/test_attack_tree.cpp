#include "at/attack_tree.hpp"

#include <gtest/gtest.h>

#include "at/structure.hpp"
#include "at/transform.hpp"
#include "casestudies/factory.hpp"
#include "helpers.hpp"

namespace atcd {
namespace {

AttackTree small_tree() {
  AttackTree t;
  const auto a = t.add_bas("a");
  const auto b = t.add_bas("b");
  const auto c = t.add_bas("c");
  const auto g = t.add_gate(NodeType::AND, "g", {a, b});
  t.add_gate(NodeType::OR, "root", {g, c});
  t.finalize();
  return t;
}

TEST(AttackTree, BasicAccessors) {
  const auto t = small_tree();
  EXPECT_EQ(t.node_count(), 5u);
  EXPECT_EQ(t.bas_count(), 3u);
  EXPECT_EQ(t.edge_count(), 4u);
  EXPECT_TRUE(t.is_treelike());
  EXPECT_EQ(t.name(t.root()), "root");
  EXPECT_EQ(t.type(*t.find("g")), NodeType::AND);
  EXPECT_TRUE(t.is_bas(*t.find("a")));
  EXPECT_FALSE(t.find("nope").has_value());
}

TEST(AttackTree, BasIndexingIsDenseAndStable) {
  const auto t = small_tree();
  for (std::uint32_t i = 0; i < t.bas_count(); ++i)
    EXPECT_EQ(t.bas_index(t.bas_id(i)), i);
  EXPECT_EQ(t.name(t.bas_id(0)), "a");
  EXPECT_EQ(t.name(t.bas_id(2)), "c");
}

TEST(AttackTree, ParentsComputedByFinalize) {
  const auto t = small_tree();
  const auto a = *t.find("a");
  ASSERT_EQ(t.parents(a).size(), 1u);
  EXPECT_EQ(t.name(t.parents(a)[0]), "g");
  EXPECT_TRUE(t.parents(t.root()).empty());
}

TEST(AttackTree, TopologicalOrderIsChildrenFirst) {
  const auto t = small_tree();
  std::vector<std::size_t> pos(t.node_count());
  const auto& topo = t.topological_order();
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (NodeId v = 0; v < t.node_count(); ++v)
    for (NodeId c : t.children(v)) EXPECT_LT(pos[c], pos[v]);
}

TEST(AttackTree, RejectsDuplicateNames) {
  AttackTree t;
  t.add_bas("x");
  EXPECT_THROW(t.add_bas("x"), ModelError);
  EXPECT_THROW(t.add_gate(NodeType::OR, "x", {0}), ModelError);
  try {
    t.add_gate(NodeType::AND, "x", {0});
    ADD_FAILURE() << "duplicate accepted";
  } catch (const ModelError& e) {
    EXPECT_STREQ(e.what(), "AttackTree: duplicate node name 'x'");
  }
  EXPECT_EQ(t.node_count(), 1u);
}

TEST(AttackTree, NameIndexFindsEveryNodeAcrossGrowth) {
  // Enough nodes to grow the name table several times; names share long
  // prefixes and suffixes so probes compare real strings.
  AttackTree t;
  std::vector<NodeId> prev;
  for (int i = 0; i < 3000; ++i) {
    const std::string leaf = "leaf_" + std::to_string(i) + "_x";
    const NodeId b = t.add_bas(leaf);
    if (i % 3 == 2) {
      prev.push_back(t.add_gate(NodeType::AND, "gate_" + std::to_string(i),
                                {b, b - 1, b - 2}));
    }
  }
  t.add_gate(NodeType::OR, "top", prev);
  AttackTree copy = t;  // the index travels with copies
  for (const AttackTree* tree : {&t, &copy})
    for (NodeId v = 0; v < tree->node_count(); ++v)
      EXPECT_EQ(tree->find(tree->name(v)), std::optional<NodeId>(v));
  EXPECT_FALSE(t.find("leaf_3000_x").has_value());
  EXPECT_FALSE(t.find("leaf_1_").has_value());
  EXPECT_FALSE(t.find("").has_value());
  EXPECT_FALSE(AttackTree().find("top").has_value());
  EXPECT_THROW(t.add_bas("gate_2"), ModelError);
}

TEST(AttackTree, RejectsEmptyAndBadGates) {
  AttackTree t;
  const auto a = t.add_bas("a");
  EXPECT_THROW(t.add_gate(NodeType::OR, "g", {}), ModelError);
  EXPECT_THROW(t.add_gate(NodeType::BAS, "g", {a}), ModelError);
  EXPECT_THROW(t.add_gate(NodeType::OR, "g", {a, a}), ModelError);
  EXPECT_THROW(t.add_gate(NodeType::OR, "g", {99}), ModelError);
}

TEST(AttackTree, FinalizeRejectsAmbiguousRoot) {
  AttackTree t;
  t.add_bas("a");
  t.add_bas("b");
  EXPECT_THROW(t.finalize(), ModelError);  // two parentless nodes
}

TEST(AttackTree, FinalizeRejectsUnreachableNodes) {
  AttackTree t;
  const auto a = t.add_bas("a");
  t.add_bas("stray");
  t.set_root(t.add_gate(NodeType::OR, "root", {a}));
  EXPECT_THROW(t.finalize(), ModelError);
}

TEST(AttackTree, FinalizeRejectsEmptyTree) {
  AttackTree t;
  EXPECT_THROW(t.finalize(), ModelError);
}

TEST(AttackTree, NoModificationAfterFinalize) {
  auto t = small_tree();
  EXPECT_THROW(t.add_bas("new"), ModelError);
  EXPECT_THROW(t.set_root(0), ModelError);
}

TEST(AttackTree, SingleBasTreeIsValid) {
  AttackTree t;
  t.add_bas("only");
  t.finalize();
  EXPECT_EQ(t.root(), 0u);
  EXPECT_TRUE(t.is_treelike());
}

TEST(AttackTree, DagDetection) {
  AttackTree t;
  const auto a = t.add_bas("a");
  const auto b = t.add_bas("b");
  const auto g1 = t.add_gate(NodeType::AND, "g1", {a, b});
  const auto g2 = t.add_gate(NodeType::OR, "g2", {a, b});  // a,b shared
  t.add_gate(NodeType::OR, "root", {g1, g2});
  t.finalize();
  EXPECT_FALSE(t.is_treelike());
}

// ---- transforms ----

TEST(Transform, BinarizePreservesSmallGates) {
  const auto t = small_tree();
  const auto r = binarize(t);
  EXPECT_EQ(r.tree.node_count(), t.node_count());
  EXPECT_TRUE(r.tree.is_treelike());
}

TEST(Transform, BinarizeSplitsWideGates) {
  AttackTree t;
  std::vector<NodeId> cs;
  for (int i = 0; i < 5; ++i) cs.push_back(t.add_bas("b" + std::to_string(i)));
  t.add_gate(NodeType::OR, "root", cs);
  t.finalize();
  const auto r = binarize(t);
  // 5 leaves need 4 binary ORs: root + 3 aux.
  EXPECT_EQ(r.tree.node_count(), 9u);
  for (NodeId v = 0; v < r.tree.node_count(); ++v)
    if (!r.tree.is_bas(v)) EXPECT_LE(r.tree.children(v).size(), 2u);
  // Same structure function on every attack.
  for (std::uint64_t m = 0; m < 32; ++m) {
    const Attack x = Attack::from_mask(5, m);
    EXPECT_EQ(structure(t, x, t.root()),
              structure(r.tree, x, r.tree.root()))
        << m;
  }
}

TEST(Transform, BinarizeMapsOriginalNodes) {
  AttackTree t;
  std::vector<NodeId> cs;
  for (int i = 0; i < 4; ++i) cs.push_back(t.add_bas("b" + std::to_string(i)));
  const auto g = t.add_gate(NodeType::AND, "wide", cs);
  t.add_gate(NodeType::OR, "root", {g});
  t.finalize();
  const auto r = binarize(t);
  EXPECT_EQ(r.tree.name(r.node_map[g]), "wide");
  EXPECT_EQ(r.origin[r.node_map[g]], g);
  // Aux nodes have no origin.
  std::size_t aux = 0;
  for (NodeId v = 0; v < r.tree.node_count(); ++v)
    if (r.origin[v] == kNoNode) ++aux;
  EXPECT_EQ(aux, 2u);  // 4-ary AND -> 2 aux gates
}

TEST(Transform, BinarizeRandomTreesPreserveStructureFunction) {
  Rng rng(99);
  for (int it = 0; it < 20; ++it) {
    const auto t = atcd::testing::random_tree(rng, 6);
    const auto r = binarize(t);
    for (std::uint64_t m = 0; m < 64; ++m) {
      const Attack x = Attack::from_mask(6, m);
      ASSERT_EQ(structure(t, x, t.root()),
                structure(r.tree, x, r.tree.root()));
    }
  }
}

TEST(Transform, SubtreeExtractsClosedSubDag) {
  const auto fac = casestudies::make_factory();
  const auto dr = *fac.tree.find("dr");
  const auto s = subtree(fac.tree, dr);
  EXPECT_EQ(s.tree.node_count(), 3u);  // pb, fd, dr
  EXPECT_EQ(s.tree.name(s.tree.root()), "dr");
  EXPECT_EQ(s.node_map[*fac.tree.find("ca")], kNoNode);
}

TEST(Transform, SubtreeOfRootIsWholeTree) {
  const auto t = small_tree();
  const auto s = subtree(t, t.root());
  EXPECT_EQ(s.tree.node_count(), t.node_count());
}

}  // namespace
}  // namespace atcd
