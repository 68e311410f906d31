#pragma once
/// \file replay.hpp
/// In-process replays of a workload's request stream against the
/// library, booted from the same snapshot the server booted from:
///
///   * the reference check — every socket response is compared with an
///     api::Dispatcher's response to the same line;
///   * the BILP cross-check of a sample of cold answers;
///   * the untraced replay — decode + dispatch + encode per request, the
///     in-process baseline of the socket latency;
///   * the traced replay — the same requests with a span around each
///     layer's public entry point, for the per-layer metrics.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/dispatcher.hpp"
#include "workload.hpp"

namespace perfbench {

/// FNV-1a 64 of a response line with its solve cache disposition
/// ("hit"/"miss"/"coalesced") blanked — the one member that legitimately
/// depends on cache state rather than on the request.
std::uint64_t response_digest(const std::string& line);

/// A dispatcher with default serving options whose caches are loaded
/// from \p snapshot (an encoded image).  \p load_s receives the
/// persist::decode_snapshot wall time.
std::unique_ptr<atcd::api::Dispatcher> boot_dispatcher(
    const std::string& snapshot, double* load_s);

/// Dispatches one encoded request line and returns the encoded
/// response, as the server's serving loop does.
std::string dispatch_line(atcd::api::Dispatcher& d, const std::string& line);

/// Digests of the reference responses to lines [0, n) of \p stream, on
/// one dispatcher booted from \p snapshot after the stream's set-up
/// lines, with \p threads workers (stateful streams shard by session).
std::vector<std::uint64_t> reference_digests(const Stream& stream,
                                             const LineFn& line, std::uint64_t n,
                                             const std::string& snapshot,
                                             unsigned threads);

/// Solves \p lines (cold solve requests) with the default engine and
/// with the BILP engine on a fresh dispatcher and compares the optima.  Returns the number
/// of disagreements; \p detail describes the first.
std::size_t bilp_disagreements(const std::vector<std::string>& lines,
                               std::string* detail);

/// Per-layer self-time figures of the traced replay.
struct LayerFigures {
  double self_us_p50 = 0.0;
  double self_us_p99 = 0.0;
  double share = 0.0;  ///< summed self time / summed request time
  std::size_t spans = 0;
};

struct ReplayResult {
  std::uint64_t requests = 0;
  double untraced_s = 0.0;  ///< wall time of the untraced replay
  double traced_s = 0.0;    ///< wall time of the traced replay
  std::vector<double> inproc_us;  ///< untraced decode+dispatch+encode
  std::map<std::string, LayerFigures> layers;
  double unattributed_share = 0.0;
  std::vector<double> load_s;  ///< decode_snapshot times of the boots
  std::uint64_t divergences = 0;  ///< twin-stack hit/miss disagreements
  std::uint64_t mismatches = 0;   ///< replay responses != socket digests
  std::uint64_t render_bytes = 0;  ///< witness bytes the twin rendered
};

/// The layer spans the traced replay records, in report order.
const std::vector<std::string>& layer_names();

/// Runs the untraced and then the traced replay over lines [0, n).
/// \p socket_digests (indexed by line) are compared with the replayed
/// responses.  The spans are written to \p trace_path as Chrome
/// trace-event JSON when the replay ends.
ReplayResult replay(const Stream& stream, const LineFn& line, std::uint64_t n,
                    const std::string& snapshot,
                    const std::vector<std::uint64_t>& socket_digests,
                    const std::string& trace_path);

}  // namespace perfbench
