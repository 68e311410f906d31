#include "persist/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "at/parser.hpp"
#include "pareto/front_soa.hpp"
#include "service/canon.hpp"
#include "service/subtree_cache.hpp"

namespace atcd::persist {

const char* to_string(LoadStatus status) {
  switch (status) {
    case LoadStatus::Ok: return "ok";
    case LoadStatus::IoError: return "io_error";
    case LoadStatus::BadMagic: return "bad_magic";
    case LoadStatus::BadVersion: return "bad_version";
    case LoadStatus::Truncated: return "truncated";
    case LoadStatus::ChecksumMismatch: return "checksum_mismatch";
    case LoadStatus::Corrupt: return "corrupt";
  }
  return "corrupt";
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
// ---------------------------------------------------------------------------

namespace {

struct Crc32Table {
  std::uint32_t at[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      at[i] = c;
    }
  }
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const Crc32Table table;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table.at[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Little helpers: append/read fixed-width values on a byte string.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

constexpr std::uint32_t kResultTag = fourcc('R', 'C', '0', '1');
constexpr std::uint32_t kSubtreeTag = fourcc('S', 'C', '0', '1');

void put_u8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void put_u32(std::string* out, std::uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_u64(std::string* out, std::uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_f64(std::string* out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}
void put_str(std::string* out, const std::string& s) {
  put_u64(out, s.size());
  out->append(s);
}
void put_bitset(std::string* out, const DynBitset& w) {
  put_u64(out, w.size());
  for (std::size_t i = 0; i < w.word_count(); ++i) put_u64(out, w.word(i));
}

/// Thrown by the payload readers on any malformed content inside a
/// CRC-validated section; the decoder maps it to LoadStatus::Corrupt.
struct CorruptPayload {
  std::string what;
};

[[noreturn]] void corrupt(std::string what) {
  throw CorruptPayload{std::move(what)};
}

/// Bounds-checked cursor over one section payload.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : p_(data), n_(size) {}

  bool done() const { return off_ == n_; }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(p_[off_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, p_ + off_, 4);
    off_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, p_ + off_, 8);
    off_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t len = u64();
    need(len);
    std::string s(p_ + off_, static_cast<std::size_t>(len));
    off_ += static_cast<std::size_t>(len);
    return s;
  }
  DynBitset bitset() {
    const std::uint64_t nbits = u64();
    if (nbits > (std::uint64_t{1} << 32)) corrupt("witness width overflow");
    // Check the words are there before allocating them: the width alone
    // may claim up to 512 MB.
    need((nbits + 63) / 64 * 8);
    DynBitset w(static_cast<std::size_t>(nbits));
    for (std::size_t i = 0; i < w.word_count(); ++i) w.set_word(i, u64());
    // Padding bits above nbits must be zero (DynBitset invariant —
    // operator== and hashing depend on it).
    if (nbits % 64 != 0 && w.word_count() > 0 &&
        (w.word(w.word_count() - 1) >> (nbits % 64)) != 0)
      corrupt("witness padding bits set");
    return w;
  }

 private:
  void need(std::uint64_t k) {
    if (k > n_ - off_) corrupt("payload shorter than its contents claim");
  }
  const char* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

// ---------------------------------------------------------------------------
// ResultCache section.
// ---------------------------------------------------------------------------

std::string encode_result_section(const service::ResultCache& cache,
                                  std::size_t* count) {
  const auto entries = cache.export_entries();
  *count = entries.size();
  FrontSoaStore fronts;
  for (const auto& e : entries) fronts.add(e.result->front);
  std::string out;
  put_u64(&out, entries.size());
  put_str(&out, fronts.to_bytes());
  for (const auto& e : entries) {
    put_u64(&out, e.key.model);
    put_u8(&out, static_cast<std::uint8_t>(e.key.problem));
    put_f64(&out, e.key.bound);
    put_str(&out, e.key.backend);
    put_u8(&out, e.prob ? 1 : 0);
    put_str(&out, e.prob ? serialize_model(e.prob->tree, e.prob->cost,
                                           e.prob->damage, &e.prob->prob)
                         : serialize_model(e.det->tree, e.det->cost,
                                           e.det->damage, nullptr));
    put_str(&out, e.result->backend);
    put_u8(&out, e.result->attack.feasible ? 1 : 0);
    put_f64(&out, e.result->attack.cost);
    put_f64(&out, e.result->attack.damage);
    put_bitset(&out, e.result->attack.witness);
  }
  return out;
}

struct StagedResult {
  service::CacheKey key;
  std::shared_ptr<const CdAt> det;
  std::shared_ptr<const CdpAt> prob;
  engine::SolveResult result;
};

std::vector<StagedResult> decode_result_section(const std::string& payload) {
  Reader r(payload.data(), payload.size());
  const std::uint64_t n = r.u64();
  const auto fronts = FrontSoaStore::from_bytes(r.str());
  if (!fronts) corrupt("front store image does not decode");
  if (fronts->size() != n) corrupt("front count does not match entry count");
  std::vector<StagedResult> staged;
  for (std::uint64_t i = 0; i < n; ++i) {
    StagedResult s;
    s.key.model = r.u64();
    const std::uint8_t problem = r.u8();
    if (problem > static_cast<std::uint8_t>(engine::Problem::Cged))
      corrupt("unknown problem id");
    s.key.problem = static_cast<engine::Problem>(problem);
    s.key.bound = r.f64();
    s.key.backend = r.str();
    const std::uint8_t kind = r.u8();
    if (kind > 1) corrupt("unknown model kind");
    if ((kind == 1) != engine::is_probabilistic(s.key.problem))
      corrupt("model kind does not match problem");
    const std::string model_text = r.str();
    try {
      parse_typed_model(model_text, kind == 1, &s.det, &s.prob);
    } catch (const std::exception& e) {
      corrupt(std::string("embedded model does not parse: ") + e.what());
    }
    // The canonical hash must still identify the model, or lookups on
    // the restored entry would misbehave — recompute and verify.
    const std::uint64_t fp = s.prob
                                 ? service::model_fingerprint(*s.prob)
                                 : service::model_fingerprint(*s.det);
    if (fp != s.key.model) corrupt("canonical hash does not match model");
    s.result.ok = true;
    s.result.backend = r.str();
    s.result.front = fronts->get(static_cast<std::uint32_t>(i));
    s.result.attack.feasible = r.u8() != 0;
    s.result.attack.cost = r.f64();
    s.result.attack.damage = r.f64();
    s.result.attack.witness = r.bitset();
    // Witnesses index the model's BASs; a hit on a renamed resubmission
    // remaps them through a table of exactly that size.
    const std::size_t n_bas =
        s.prob ? s.prob->tree.bas_count() : s.det->tree.bas_count();
    if (!s.result.attack.witness.fits_in(n_bas) ||
        !std::all_of(s.result.front.begin(), s.result.front.end(),
                     [&](const FrontPoint& p) {
                       return p.witness.fits_in(n_bas);
                     }))
      corrupt("witness indexes a BAS the model does not have");
    staged.push_back(std::move(s));
  }
  if (!r.done()) corrupt("trailing bytes after last entry");
  return staged;
}

// ---------------------------------------------------------------------------
// SubtreeCache section.
// ---------------------------------------------------------------------------

std::string encode_subtree_section(const service::SubtreeCache& cache,
                                   std::size_t* count) {
  const auto entries = cache.export_entries();
  *count = entries.size();
  std::string out;
  put_u64(&out, entries.size());
  for (const auto& e : entries) {
    put_u64(&out, e.hash);
    put_f64(&out, e.budget);
    put_str(&out, *e.sig);
    put_u64(&out, e.front->size());
    for (const AttrTriple& t : *e.front) {
      put_f64(&out, t.t.cost);
      put_f64(&out, t.t.damage);
      put_f64(&out, t.t.act);
      put_bitset(&out, t.witness);
    }
  }
  return out;
}

struct StagedSubtree {
  std::uint64_t hash = 0;
  double budget = 0.0;
  std::string sig;
  std::vector<AttrTriple> front;
};

std::vector<StagedSubtree> decode_subtree_section(const std::string& payload) {
  Reader r(payload.data(), payload.size());
  const std::uint64_t n = r.u64();
  std::vector<StagedSubtree> staged;
  for (std::uint64_t i = 0; i < n; ++i) {
    StagedSubtree s;
    s.hash = r.u64();
    s.budget = r.f64();
    s.sig = r.str();
    const std::uint64_t points = r.u64();
    // Exact reserve: SubtreeCache::put charges capacity(), so a
    // restored front must not carry push_back growth slack.  Clamped
    // by what the payload could possibly hold (each point is >= 24
    // bytes) so a corrupt count cannot trigger a huge allocation.
    s.front.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(points, payload.size() / 24 + 1)));
    for (std::uint64_t k = 0; k < points; ++k) {
      AttrTriple t;
      t.t.cost = r.f64();
      t.t.damage = r.f64();
      t.t.act = r.f64();
      t.witness = r.bitset();
      s.front.push_back(std::move(t));
    }
    if (!service::witnesses_fit_signature(s.sig, s.front))
      corrupt("witness indexes a leaf the subtree signature does not have");
    staged.push_back(std::move(s));
  }
  if (!r.done()) corrupt("trailing bytes after last entry");
  return staged;
}

void append_section(std::string* out, std::uint32_t tag,
                    const std::string& payload) {
  put_u32(out, tag);
  put_u64(out, payload.size());
  put_u32(out, crc32(payload.data(), payload.size()));
  out->append(payload);
}

}  // namespace

// ---------------------------------------------------------------------------
// Whole-image encode / decode.
// ---------------------------------------------------------------------------

std::string encode_snapshot(const service::ResultCache& results,
                            const service::SubtreeCache& subtrees,
                            SnapshotInfo* info) {
  SnapshotInfo local;
  std::string out(kMagic, sizeof kMagic);
  put_u32(&out, kFormatVersion);
  put_u32(&out, 2);  // section count
  append_section(&out, kResultTag,
                 encode_result_section(results, &local.result_entries));
  append_section(&out, kSubtreeTag,
                 encode_subtree_section(subtrees, &local.subtree_entries));
  local.bytes = out.size();
  if (info) *info = local;
  return out;
}

LoadStatus decode_snapshot(const std::string& bytes,
                           service::ResultCache* results,
                           service::SubtreeCache* subtrees,
                           SnapshotInfo* info, std::string* error) {
  const auto fail = [&](LoadStatus status, std::string message) {
    if (error) *error = std::move(message);
    return status;
  };
  if (std::memcmp(bytes.data(), kMagic,
                  std::min(bytes.size(), sizeof kMagic)) != 0)
    return fail(LoadStatus::BadMagic, "not a snapshot file (bad magic)");
  if (bytes.size() < sizeof kMagic + 8)
    return fail(LoadStatus::Truncated, "file shorter than the header");
  std::uint32_t version, sections;
  std::memcpy(&version, bytes.data() + 8, 4);
  std::memcpy(&sections, bytes.data() + 12, 4);
  if (version != kFormatVersion)
    return fail(LoadStatus::BadVersion,
                "snapshot format v" + std::to_string(version) +
                    " (this build reads v" + std::to_string(kFormatVersion) +
                    ")");

  // Walk the section table, CRC-checking each payload, and decode every
  // section into staging storage.  Nothing touches the caches until the
  // whole image has decoded.
  std::vector<StagedResult> staged_results;
  std::vector<StagedSubtree> staged_subtrees;
  bool saw_results = false, saw_subtrees = false;
  std::size_t off = 16;
  for (std::uint32_t s = 0; s < sections; ++s) {
    if (bytes.size() - off < 16)
      return fail(LoadStatus::Truncated, "section header cut short");
    std::uint32_t tag, crc;
    std::uint64_t size;
    std::memcpy(&tag, bytes.data() + off, 4);
    std::memcpy(&size, bytes.data() + off + 4, 8);
    std::memcpy(&crc, bytes.data() + off + 12, 4);
    off += 16;
    if (size > bytes.size() - off)
      return fail(LoadStatus::Truncated, "section payload cut short");
    const std::string payload = bytes.substr(off, size);
    off += static_cast<std::size_t>(size);
    if (crc32(payload.data(), payload.size()) != crc)
      return fail(LoadStatus::ChecksumMismatch,
                  "section checksum does not match its bytes");
    try {
      if (tag == kResultTag && !saw_results) {
        staged_results = decode_result_section(payload);
        saw_results = true;
      } else if (tag == kSubtreeTag && !saw_subtrees) {
        staged_subtrees = decode_subtree_section(payload);
        saw_subtrees = true;
      } else {
        return fail(LoadStatus::Corrupt, "unknown or duplicate section tag");
      }
    } catch (const CorruptPayload& c) {
      return fail(LoadStatus::Corrupt, c.what);
    } catch (const std::exception& e) {
      return fail(LoadStatus::Corrupt, e.what());
    }
  }
  if (off != bytes.size())
    return fail(LoadStatus::Corrupt, "trailing bytes after last section");

  // Fully decoded — apply.  Replaying least-recent-first through the
  // normal insert paths rebuilds the LRU order and lets the receiving
  // cache enforce its own budgets (over-budget loads evict in LRU
  // order; nothing here bypasses those checks).
  if (results)
    for (StagedResult& s : staged_results)
      results->insert(s.key, std::move(s.det), std::move(s.prob), s.result);
  if (subtrees)
    for (StagedSubtree& s : staged_subtrees)
      subtrees->restore_entry(s.hash, s.budget, s.sig, std::move(s.front));
  if (info) {
    info->result_entries = staged_results.size();
    info->subtree_entries = staged_subtrees.size();
    info->bytes = bytes.size();
  }
  return LoadStatus::Ok;
}

// ---------------------------------------------------------------------------
// File I/O: atomic save, whole-file load.
// ---------------------------------------------------------------------------

bool save_snapshot(const std::string& path,
                   const service::ResultCache& results,
                   const service::SubtreeCache& subtrees, SnapshotInfo* info,
                   std::string* error) {
  const std::string image = encode_snapshot(results, subtrees, info);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    if (error) *error = "cannot write " + tmp;
    return false;
  }
  const bool wrote =
      std::fwrite(image.data(), 1, image.size(), f) == image.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    if (error) *error = "short write to " + tmp;
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error) *error = "cannot rename " + tmp + " over " + path;
    return false;
  }
  return true;
}

LoadStatus load_snapshot(const std::string& path,
                         service::ResultCache* results,
                         service::SubtreeCache* subtrees, SnapshotInfo* info,
                         std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (error) *error = "cannot read " + path;
    return LoadStatus::IoError;
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, got);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    if (error) *error = "read failure on " + path;
    return LoadStatus::IoError;
  }
  return decode_snapshot(bytes, results, subtrees, info, error);
}

}  // namespace atcd::persist
