#include "util/bitset.hpp"

#include <bit>

namespace atcd {

std::size_t DynBitset::count() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool DynBitset::is_subset_of(const DynBitset& other) const {
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  return true;
}

DynBitset& DynBitset::operator|=(const DynBitset& o) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

DynBitset& DynBitset::operator&=(const DynBitset& o) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

DynBitset& DynBitset::subtract(const DynBitset& o) {
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
  return *this;
}

std::string DynBitset::to_string() const {
  std::string s(nbits_, '0');
  for (std::size_t i = 0; i < nbits_; ++i)
    if (test(i)) s[i] = '1';
  return s;
}

std::vector<std::size_t> DynBitset::ones() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nbits_; ++i)
    if (test(i)) out.push_back(i);
  return out;
}

bool DynBitset::fits_in(std::size_t n) const {
  for (std::size_t w = n / 64; w < words_.size(); ++w) {
    const std::uint64_t above =
        w == n / 64 ? words_[w] >> (n % 64) : words_[w];
    if (above != 0) return false;
  }
  return true;
}

DynBitset DynBitset::from_mask(std::size_t nbits, std::uint64_t mask) {
  DynBitset b(nbits);
  if (!b.words_.empty()) b.words_[0] = mask;
  // Bits beyond nbits must stay zero so equality/hash stay canonical.
  if (nbits < 64 && !b.words_.empty())
    b.words_[0] &= (nbits == 0) ? 0 : (~std::uint64_t{0} >> (64 - nbits));
  return b;
}

std::size_t DynBitset::hash() const {
  // FNV-1a over the words; adequate for the unordered maps in the engines.
  std::uint64_t h = 1469598103934665603ull;
  for (auto w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h ^ nbits_);
}

}  // namespace atcd
