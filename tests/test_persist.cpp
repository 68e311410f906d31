/// Tests for the snapshot persistence subsystem (src/persist/): the
/// save → load → save byte-identity property (scaled by
/// ATCD_FUZZ_ITERS), warm restarts serving cache hits for repeated and
/// isomorphic-permuted submissions, typed rejection of truncated,
/// bit-flipped, and version-bumped images (never a crash, never a
/// partially populated cache), atomic write-to-temp-then-rename saves,
/// and budget enforcement on load (an over-budget image evicts its
/// least-recent entries instead of talking the cache out of its
/// configured limits).

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <random>
#include <sstream>
#include <string>

#include "persist/snapshot.hpp"
#include "service/cache.hpp"
#include "service/service.hpp"
#include "service/subtree_cache.hpp"

namespace atcd {
namespace {

using engine::Problem;
using persist::LoadStatus;
using persist::SnapshotInfo;
using service::ResultCache;
using service::SolveService;
using service::SubtreeCache;

std::size_t fuzz_iters(std::size_t dflt) {
  if (const char* env = std::getenv("ATCD_FUZZ_ITERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return dflt;
}

/// A family of small distinct models: the (i % 7, i / 7) cost pair is
/// unique for i < 49, so every index has its own canonical hash.
std::string model_text(unsigned i) {
  std::ostringstream o;
  o << "bas a cost=" << (1 + i % 7) << " damage=2\n"
    << "bas b cost=" << (2 + i % 5) << " damage=1\n"
    << "bas c cost=" << (3 + i / 7) << "\n"
    << "and g = a, b\n"
    << "or root = g, c damage=" << (5 + i % 3) << "\n";
  return o.str();
}

/// The same model as model_text(i) with every node renamed and the
/// statements and child lists reordered — isomorphic, so it must hash
/// to the same canonical key.
std::string permuted_model_text(unsigned i) {
  std::ostringstream o;
  o << "bas z1 cost=" << (2 + i % 5) << " damage=1\n"
    << "bas z2 cost=" << (3 + i / 7) << "\n"
    << "bas z0 cost=" << (1 + i % 7) << " damage=2\n"
    << "and h = z1, z0\n"
    << "or top = z2, h damage=" << (5 + i % 3) << "\n";
  return o.str();
}

/// Solves `count` distinct models so both caches hold real entries
/// (fronts, witnesses, canonical keys).  handle() binds no subtree
/// cache, so each model is solved once more with the service's subtree
/// cache attached explicitly.
void fill(SolveService& svc, unsigned count, unsigned salt = 0) {
  engine::BatchOptions with_subtrees;
  with_subtrees.subtree = &svc.subtree_cache();
  for (unsigned i = 0; i < count; ++i) {
    const auto resp = svc.handle(
        service::Request::of_text(Problem::Cdpf, model_text(salt + i)));
    ASSERT_TRUE(resp.result.ok) << resp.result.error;
    ASSERT_TRUE(resp.det);
    const auto direct = engine::solve_one(
        engine::Instance::of(Problem::Cdpf, *resp.det), with_subtrees);
    ASSERT_TRUE(direct.ok) << direct.error;
  }
}

SolveService::Options single_shard_options() {
  SolveService::Options opt;
  opt.cache.shards = 1;
  opt.subtree.shards = 1;
  return opt;
}

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem + std::to_string(::getpid()) + ".atcd";
}

// ---------------------------------------------------------------------------
// Round-trip property: save -> load -> save is byte-identical.
// ---------------------------------------------------------------------------

TEST(Persist, SaveLoadSaveByteIdentical) {
  const std::size_t iters = fuzz_iters(8);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    SolveService svc(single_shard_options());
    fill(svc, 3 + iter % 6, static_cast<unsigned>(iter * 7) % 40);

    SnapshotInfo info1;
    const std::string img1 =
        persist::encode_snapshot(svc.cache(), svc.subtree_cache(), &info1);
    EXPECT_EQ(info1.bytes, img1.size());
    EXPECT_GT(info1.result_entries, 0u);

    ResultCache::Config rcfg;
    rcfg.shards = 1;
    SubtreeCache::Config scfg;
    scfg.shards = 1;
    ResultCache rc(rcfg);
    SubtreeCache sc(scfg);
    SnapshotInfo info2;
    std::string err;
    ASSERT_EQ(persist::decode_snapshot(img1, &rc, &sc, &info2, &err),
              LoadStatus::Ok)
        << err;
    EXPECT_EQ(info2.result_entries, info1.result_entries);
    EXPECT_EQ(info2.subtree_entries, info1.subtree_entries);

    const std::string img2 = persist::encode_snapshot(rc, sc);
    EXPECT_EQ(img1, img2) << "iteration " << iter;
  }
}

TEST(Persist, EmptyCachesRoundTrip) {
  SolveService svc;
  SnapshotInfo info;
  const std::string img =
      persist::encode_snapshot(svc.cache(), svc.subtree_cache(), &info);
  EXPECT_EQ(info.result_entries, 0u);
  EXPECT_EQ(info.subtree_entries, 0u);

  ResultCache rc;
  SubtreeCache sc;
  ASSERT_EQ(persist::decode_snapshot(img, &rc, &sc), LoadStatus::Ok);
  EXPECT_EQ(persist::encode_snapshot(rc, sc), img);
}

TEST(Persist, NullCachePointersValidateWithoutRestoring) {
  SolveService svc(single_shard_options());
  fill(svc, 4);
  const std::string img =
      persist::encode_snapshot(svc.cache(), svc.subtree_cache());
  SnapshotInfo info;
  ASSERT_EQ(persist::decode_snapshot(img, nullptr, nullptr, &info),
            LoadStatus::Ok);
  EXPECT_EQ(info.result_entries, 4u);
}

// ---------------------------------------------------------------------------
// Warm restart through files.
// ---------------------------------------------------------------------------

TEST(Persist, FileRoundTripServesWarmHits) {
  const std::string path = temp_path("persist_warm_");
  {
    SolveService svc(single_shard_options());
    fill(svc, 5);
    SnapshotInfo info;
    std::string err;
    ASSERT_TRUE(persist::save_snapshot(path, svc.cache(),
                                       svc.subtree_cache(), &info, &err))
        << err;
    EXPECT_EQ(info.result_entries, 5u);
    // Atomic save: the temp file must not survive a successful rename.
    struct stat st;
    EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    EXPECT_EQ(static_cast<std::size_t>(st.st_size), info.bytes);
  }

  SolveService fresh(single_shard_options());
  std::string err;
  ASSERT_EQ(persist::load_snapshot(path, &fresh.cache(),
                                   &fresh.subtree_cache(), nullptr, &err),
            LoadStatus::Ok)
      << err;

  // Every model solved before the restart is a hit now — including an
  // isomorphic renamed/reordered resubmission (canonical keys persist).
  for (unsigned i = 0; i < 5; ++i) {
    const auto same = fresh.handle(
        service::Request::of_text(Problem::Cdpf, model_text(i)));
    ASSERT_TRUE(same.result.ok);
    EXPECT_TRUE(same.cache_hit) << "model " << i;
    const auto iso = fresh.handle(
        service::Request::of_text(Problem::Cdpf, permuted_model_text(i)));
    ASSERT_TRUE(iso.result.ok);
    EXPECT_TRUE(iso.cache_hit) << "permuted model " << i;
  }
  ::unlink(path.c_str());
}

TEST(Persist, MissingFileIsIoError) {
  ResultCache rc;
  SubtreeCache sc;
  std::string err;
  EXPECT_EQ(persist::load_snapshot("/nonexistent/dir/none.atcd", &rc, &sc,
                                   nullptr, &err),
            LoadStatus::IoError);
  EXPECT_FALSE(err.empty());
}

TEST(Persist, UnwritablePathFailsSaveWithError) {
  SolveService svc;
  std::string err;
  EXPECT_FALSE(persist::save_snapshot("/nonexistent/dir/none.atcd",
                                      svc.cache(), svc.subtree_cache(),
                                      nullptr, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Corruption: typed errors, never a crash, never a partial restore.
// ---------------------------------------------------------------------------

std::string valid_image() {
  SolveService svc(single_shard_options());
  fill(svc, 5);
  return persist::encode_snapshot(svc.cache(), svc.subtree_cache());
}

/// Decoding a damaged image must fail with a typed status and leave
/// the target caches exactly as they were (here: empty).
void expect_rejected(const std::string& bytes) {
  ResultCache rc;
  SubtreeCache sc;
  std::string err;
  const LoadStatus status =
      persist::decode_snapshot(bytes, &rc, &sc, nullptr, &err);
  EXPECT_NE(status, LoadStatus::Ok);
  EXPECT_FALSE(err.empty());
  EXPECT_STRNE(persist::to_string(status), "ok");
  EXPECT_EQ(rc.stats().entries, 0u);
  EXPECT_EQ(rc.stats().insertions, 0u);
  EXPECT_EQ(sc.stats().entries, 0u);
  EXPECT_EQ(sc.stats().insertions, 0u);
}

TEST(Persist, TruncationIsTypedAndAtomic) {
  const std::string img = valid_image();
  const std::size_t cuts[] = {0,  4,  8,  12,           15,
                              16, 24, 40, img.size() / 4, img.size() / 2,
                              img.size() - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, img.size());
    expect_rejected(img.substr(0, cut));
  }
}

TEST(Persist, BitFlipFuzzIsTypedAndAtomic) {
  const std::string img = valid_image();
  const std::size_t iters = fuzz_iters(32);
  std::mt19937 rng(20230808);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    std::string bad = img;
    const std::size_t byte = rng() % bad.size();
    bad[byte] = static_cast<char>(bad[byte] ^ (1u << (rng() % 8)));
    expect_rejected(bad);
  }
}

TEST(Persist, VersionBumpIsRejected) {
  std::string img = valid_image();
  // u32 format version lives at bytes 8..12 (little-endian).
  img[8] = static_cast<char>(img[8] + 1);
  ResultCache rc;
  SubtreeCache sc;
  std::string err;
  EXPECT_EQ(persist::decode_snapshot(img, &rc, &sc, nullptr, &err),
            LoadStatus::BadVersion);
  EXPECT_NE(err.find("format v"), std::string::npos);
  EXPECT_EQ(rc.stats().entries, 0u);
}

TEST(Persist, BadMagicIsRejected) {
  std::string img = valid_image();
  img[0] = 'X';
  expect_rejected(img);
  expect_rejected("not a snapshot at all");
}

TEST(Persist, UnknownSectionTagIsCorrupt) {
  std::string img = valid_image();
  // First section tag sits right after the 16-byte header.
  img[16] = static_cast<char>(img[16] ^ 0x40);
  ResultCache rc;
  SubtreeCache sc;
  EXPECT_EQ(persist::decode_snapshot(img, &rc, &sc), LoadStatus::Corrupt);
  EXPECT_EQ(rc.stats().entries, 0u);
}

TEST(Persist, TrailingBytesAreCorrupt) {
  std::string img = valid_image();
  img += "extra";
  ResultCache rc;
  SubtreeCache sc;
  EXPECT_EQ(persist::decode_snapshot(img, &rc, &sc), LoadStatus::Corrupt);
  EXPECT_EQ(rc.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Hostile but CRC-valid images: the decoder checks what an entry claims
// before it allocates or stages it.
// ---------------------------------------------------------------------------

/// Wraps \p payload as the only section of an otherwise valid image.
std::string one_section_image(const char (&tag)[5],
                              const std::string& payload) {
  std::string img(persist::kMagic, sizeof persist::kMagic);
  const auto put = [&](const auto& v) {
    img.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(persist::kFormatVersion);
  put(std::uint32_t{1});  // section count
  img.append(tag, 4);
  put(std::uint64_t{payload.size()});
  put(persist::crc32(payload.data(), payload.size()));
  return img + payload;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST(Persist, WitnessWidthIsCheckedBeforeAllocating) {
  // One subtree entry with one point whose witness claims 2^32 bits but
  // carries no words: 104 bytes that would cost 512 MB if the decoder
  // allocated the witness before reading it.
  std::string payload;
  const auto put = [&](const auto& v) {
    payload.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(std::uint64_t{1});          // entries
  put(std::uint64_t{0});          // hash
  put(0.0);                       // budget
  put(std::uint64_t{0});          // signature length
  put(std::uint64_t{1});          // points
  put(1.0);                       // cost
  put(2.0);                       // damage
  put(1.0);                       // activation
  put(std::uint64_t{1} << 32);    // witness width, no words follow
  const std::string img = one_section_image("SC01", payload);
  ASSERT_EQ(img.size(), 104u);

  const long before = peak_rss_kb();
  ResultCache rc;
  SubtreeCache sc;
  EXPECT_EQ(persist::decode_snapshot(img, &rc, &sc), LoadStatus::Corrupt);
  EXPECT_LT(peak_rss_kb() - before, 64 * 1024) << "peak RSS rose (KB)";
  EXPECT_EQ(sc.stats().entries, 0u);
}

TEST(Persist, ResultWitnessOutsideModelIsCorrupt) {
  SolveService src(single_shard_options());
  fill(src, 1);
  const auto entries = src.cache().export_entries();
  ASSERT_EQ(entries.size(), 1u);
  const auto& e = entries[0];
  const std::size_t n_bas = e.det->tree.bas_count();
  // Same front, but the first witness also names BAS index n_bas, which
  // the model does not have.
  engine::SolveResult bad = *e.result;
  std::vector<FrontPoint> points(bad.front.begin(), bad.front.end());
  for (std::size_t i = 0; i < points.size(); ++i) {
    DynBitset w(64);
    for (std::size_t b : points[i].witness.ones()) w.set(b);
    if (i == 0) w.set(n_bas);
    points[i].witness = w;
  }
  bad.front = Front2d::of_candidates(std::move(points));
  ResultCache rc;
  rc.insert(e.key, e.det, e.prob, bad);
  const std::string img = persist::encode_snapshot(rc, SubtreeCache());

  SolveService dst(single_shard_options());
  std::string err;
  const LoadStatus status = persist::decode_snapshot(
      img, &dst.cache(), &dst.subtree_cache(), nullptr, &err);
  EXPECT_EQ(status, LoadStatus::Corrupt) << err;
  EXPECT_EQ(dst.cache().stats().entries, 0u);
  if (status == LoadStatus::Ok) {
    // What a loaded image would do next: a renamed resubmission is a
    // canonical hit whose witnesses are remapped BAS by BAS.
    (void)dst.handle(
        service::Request::of_text(Problem::Cdpf, permuted_model_text(0)));
  }
}

TEST(Persist, SubtreeWitnessOutsideSignatureIsCorrupt) {
  SolveService src(single_shard_options());
  fill(src, 1);
  const auto entries = src.subtree_cache().export_entries();
  ASSERT_FALSE(entries.empty());
  // Every entry's first witness also names local leaf n_local, one past
  // the subtree its signature spells.
  SubtreeCache sc;
  for (const auto& e : entries) {
    std::vector<AttrTriple> front = *e.front;
    ASSERT_FALSE(front.empty());
    const std::size_t n_local = front[0].witness.size();
    DynBitset w(n_local + 1);
    for (std::size_t b : front[0].witness.ones()) w.set(b);
    w.set(n_local);
    front[0].witness = w;
    sc.restore_entry(e.hash, e.budget, *e.sig, std::move(front));
  }
  const std::string img = persist::encode_snapshot(ResultCache(), sc);

  SolveService dst(single_shard_options());
  std::string err;
  const LoadStatus status = persist::decode_snapshot(
      img, &dst.cache(), &dst.subtree_cache(), nullptr, &err);
  EXPECT_EQ(status, LoadStatus::Corrupt) << err;
  EXPECT_EQ(dst.subtree_cache().stats().entries, 0u);
  if (status == LoadStatus::Ok) {
    // What a loaded image would do next: a solve of the same model hits
    // the restored root entry and maps its witnesses into host leaves.
    (void)dst.handle(service::Request::of_text(Problem::Cdpf, model_text(0)));
  }
}

// ---------------------------------------------------------------------------
// Budgets: a load can never talk a cache out of its configured limits.
// ---------------------------------------------------------------------------

TEST(Persist, OverBudgetLoadEvictsLeastRecentEntries) {
  // Source: 10 entries, single shard so the image's LRU->MRU order is
  // the global recency order.
  SolveService src(single_shard_options());
  fill(src, 10);
  const std::string img =
      persist::encode_snapshot(src.cache(), src.subtree_cache());

  // Target: same caches, much smaller entry budgets.
  SolveService::Options small = single_shard_options();
  small.cache.max_entries = 3;
  small.subtree.max_entries = 4;
  SolveService dst(small);
  std::string err;
  ASSERT_EQ(persist::decode_snapshot(img, &dst.cache(), &dst.subtree_cache(),
                                     nullptr, &err),
            LoadStatus::Ok)
      << err;

  // Budgets hold: the replay inserted 10 and evicted down to 3.
  EXPECT_LE(dst.cache().stats().entries, 3u);
  EXPECT_EQ(dst.cache().stats().insertions, 10u);
  EXPECT_GE(dst.cache().stats().evictions, 7u);
  EXPECT_LE(dst.subtree_cache().stats().entries, 4u);

  // The *most recent* entries survived: the last model solved before
  // the snapshot hits, the first misses.
  const auto newest =
      dst.handle(service::Request::of_text(Problem::Cdpf, model_text(9)));
  EXPECT_TRUE(newest.cache_hit);
  const auto oldest =
      dst.handle(service::Request::of_text(Problem::Cdpf, model_text(0)));
  EXPECT_FALSE(oldest.cache_hit);
}

/// Byte bookkeeping is recomputed by the receiving cache, never read
/// from the image: a restored cache reports exactly the bytes of the
/// entries it holds (no double count between the two sections, no
/// stale source-side accounting).
TEST(Persist, RestoredByteAccountingMatchesSource) {
  SolveService src(single_shard_options());
  fill(src, 6);
  const std::string img =
      persist::encode_snapshot(src.cache(), src.subtree_cache());

  SolveService dst(single_shard_options());
  ASSERT_EQ(persist::decode_snapshot(img, &dst.cache(), &dst.subtree_cache()),
            LoadStatus::Ok);
  EXPECT_EQ(dst.cache().stats().bytes, src.cache().stats().bytes);
  EXPECT_EQ(dst.cache().stats().entries, src.cache().stats().entries);
  // Subtree fronts charge vector capacity; the decoder reserves
  // exactly, so a restored cache can only be tighter than the source
  // (whose fronts carry push_back growth slack).
  EXPECT_LE(dst.subtree_cache().stats().bytes,
            src.subtree_cache().stats().bytes);
  EXPECT_GT(dst.subtree_cache().stats().bytes, 0u);
  EXPECT_EQ(dst.subtree_cache().stats().entries,
            src.subtree_cache().stats().entries);
  EXPECT_GT(dst.cache().stats().bytes, 0u);
}

}  // namespace
}  // namespace atcd
