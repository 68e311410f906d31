#pragma once
/// \file bitset.hpp
/// A small dynamic bitset used to represent attacks: an attack on an AT with
/// BAS set B is a vector in {0,1}^B (paper, Def. 2).  std::bitset is fixed
/// size and std::vector<bool> lacks word-level operations, so we provide a
/// compact value type with the boolean-lattice operations the engines need
/// (union, intersection, subset test used for the partial order x ⪯ y).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace atcd {

/// Dynamic fixed-capacity bitset with value semantics.
///
/// The capacity (number of bits) is set at construction and never changes;
/// all binary operations require equal capacities.
class DynBitset {
 public:
  DynBitset() = default;

  /// Creates a bitset of \p nbits bits, all zero.
  explicit DynBitset(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  /// Number of bits.
  std::size_t size() const { return nbits_; }

  /// Tests bit \p i.  Precondition: i < size().
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sets bit \p i to \p value.  Precondition: i < size().
  void set(std::size_t i, bool value = true) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  /// Sets all bits to zero.
  void reset() {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  std::size_t count() const;

  /// True iff no bit is set.
  bool none() const {
    for (auto w : words_)
      if (w != 0) return false;
    return true;
  }

  /// True iff every bit of *this is also set in \p other
  /// (the partial order ⪯ on attacks; Def. 2).
  bool is_subset_of(const DynBitset& other) const;

  /// In-place union / intersection / difference.
  DynBitset& operator|=(const DynBitset& o);
  DynBitset& operator&=(const DynBitset& o);
  /// Removes from *this every bit set in \p o.
  DynBitset& subtract(const DynBitset& o);

  friend DynBitset operator|(DynBitset a, const DynBitset& b) { return a |= b; }
  friend DynBitset operator&(DynBitset a, const DynBitset& b) { return a &= b; }

  bool operator==(const DynBitset& o) const = default;

  /// Lexicographic order on the word representation; gives DynBitset a
  /// strict weak order so it can key ordered containers.
  bool operator<(const DynBitset& o) const {
    if (nbits_ != o.nbits_) return nbits_ < o.nbits_;
    return words_ < o.words_;
  }

  /// Renders as a '0'/'1' string, bit 0 first, e.g. "101".
  std::string to_string() const;

  /// Indices of the set bits, ascending.
  std::vector<std::size_t> ones() const;

  /// True when no bit at an index >= \p n is set: the bitset is a valid
  /// attack on an index space of \p n elements.
  bool fits_in(std::size_t n) const;

  /// Builds a bitset of \p nbits bits whose lowest 64 bits equal \p mask.
  /// Useful for enumerating all attacks of small models.
  static DynBitset from_mask(std::size_t nbits, std::uint64_t mask);

  /// Word-level access for packed SoA storage (pareto/front_soa.hpp):
  /// bit i lives at word i/64, bit i%64.  set_word() trusts the caller
  /// to keep the padding bits above size() zero — word images obtained
  /// from word() of an equal-capacity bitset always satisfy this.
  std::size_t word_count() const { return words_.size(); }
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  void set_word(std::size_t w, std::uint64_t bits) { words_[w] = bits; }

  /// Hash suitable for unordered containers.
  std::size_t hash() const;

 private:
  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

struct DynBitsetHash {
  std::size_t operator()(const DynBitset& b) const { return b.hash(); }
};

}  // namespace atcd
