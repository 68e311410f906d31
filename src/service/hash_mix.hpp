#pragma once
/// \file hash_mix.hpp
/// The splitmix64-style mixing step shared by canonical hashing
/// (canon.cpp) and cache key/shard hashing (cache.cpp).  One definition:
/// the cache re-mixes values produced by canonical hashing, so the two
/// sides must never diverge.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "at/attack_tree.hpp"

namespace atcd::service {

/// Bit-exact double embedding for hashing/signatures, with -0.0
/// normalized to 0.0 (the two compare equal, so they must digest
/// equally).  Shared by the WL canonical hasher (canon.cpp) and the
/// Merkle subtree hashers (canon.cpp, subtree_cache.cpp) so they never
/// diverge.
inline std::uint64_t double_bits(double d) {
  return std::bit_cast<std::uint64_t>(d == 0.0 ? 0.0 : d);
}

/// Folds \p v into \p h; order-sensitive, so order-insensitive digests
/// are obtained by sorting before folding.
inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ull + h;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  return v ^ (v >> 31);
}

/// The two steps of the Merkle subtree hash that treelike_fingerprint()
/// (canon.cpp) and the subtree cache's keys (subtree_cache.cpp) share: a
/// BAS hashes its decorations; a gate seeds with its type, damage and
/// arity, then folds its child hashes in sorted order (so child
/// permutations and renames don't matter).
inline std::uint64_t merkle_bas_hash(double cost, double damage,
                                     double prob) {
  std::uint64_t h = mix64(0xBA5E5ull, double_bits(cost));
  h = mix64(h, double_bits(damage));
  return mix64(h, double_bits(prob));
}

inline std::uint64_t merkle_gate_seed(NodeType type, double damage,
                                      std::size_t arity) {
  std::uint64_t h =
      mix64(type == NodeType::AND ? 0xA17Dull : 0x0Bull, double_bits(damage));
  return mix64(h, arity);
}

}  // namespace atcd::service
