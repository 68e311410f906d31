#pragma once
/// \file workload.hpp
/// Seeded request streams of the three benchmark workloads, and the
/// cache preparation they all boot from.
///
/// Every stream is random access: line(k) is a pure function of the
/// workload seed and k, so the socket client, the in-process reference
/// check and the traced replay all see byte-identical request lines
/// without storing them, and the reference can be sharded over threads.
///
/// Models come from the literature-block generator behind suite files'
/// `gen:tree:<seed>:<n>` source (suite::materialize_model), which grows
/// a treelike model from the paper's Table IV blocks and decorates it
/// with randomize_decorations.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { WarmHits, ColdSolves, EditSessions };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Sizes of one run.  full() is what the benchmark measures; tiny() is
/// the harness self-test's scale (seconds, not minutes, of set-up).
struct Scale {
  std::size_t pool_models = 64;     ///< warm_hits pool
  std::size_t pool_variants = 4;    ///< renamed/reordered copies per model
  std::size_t model_nodes = 60;     ///< warm/cold model size target
  std::size_t session_nodes = 120;  ///< edit_sessions model size target
  std::size_t sessions = 16;
  std::size_t cache_entries = 4096;  ///< ResultCache default entry budget
  std::size_t warmup_requests = 256;  ///< untimed, still checked
  std::size_t setup_boots = 5;        ///< boots whose median is setup_s
  std::size_t trace_requests = 3000;  ///< replay prefix per workload
  std::size_t bilp_samples = 3;       ///< cold answers re-solved by BILP

  static Scale full() { return {}; }
  static Scale tiny();
};

/// Request lines for the server's counters (the v1 JSON envelope).
std::string stats_line(const std::string& id);
std::string metrics_line(const std::string& id);

/// A workload's request stream.  Lines carry the id "r<k>".
class Stream {
 public:
  virtual ~Stream() = default;
  virtual std::string line(std::uint64_t k) const = 0;
  /// Lines sent once after boot, before the stream (session opens);
  /// part of setup_s.
  virtual std::vector<std::string> setup_lines() const { return {}; }
  /// Session stream only: which session line(k) touches, so the
  /// reference can shard by session.  0 for stateless streams.
  virtual std::size_t shard_key(std::uint64_t k) const {
    (void)k;
    return 0;
  }
  virtual bool stateful() const { return false; }
  /// Lines per client-side latency sample: consecutive lines sent in
  /// lockstep and timed together.
  virtual std::size_t group() const { return 1; }
  /// Whether line(k) is costly enough (model generation) that the lines
  /// sent are kept for the checks instead of being generated again.
  virtual bool costly() const { return false; }
};

/// Line k of a run: from the lines kept during the run when there are
/// any, else from the stream.
using LineFn = std::function<std::string(std::uint64_t)>;

std::unique_ptr<Stream> make_stream(Workload w, std::uint64_t seed,
                                    const Scale& scale);

/// Lines [first, first + count) of \p stream, generated on \p threads.
std::vector<std::string> generate_lines(const Stream& stream, std::uint64_t first,
                                        std::size_t count, unsigned threads);

/// Request lines that fill a cache to its steady state for \p seed.
/// Shared by all three workloads: the fillers go in first, then the
/// warm pool, so the pool is most recently used.
struct PrepLines {
  std::vector<std::string> fillers;
  std::vector<std::string> pool;
};
PrepLines prep_lines(std::uint64_t seed, const Scale& scale, unsigned threads);

/// Whether a cold-stream line may be cross-checked by BILP: the
/// seeded sample of indices in [0, sent).
std::vector<std::uint64_t> bilp_sample(std::uint64_t seed, std::uint64_t sent,
                                       std::size_t count);

}  // namespace perfbench
