#pragma once
/// \file json.hpp
/// The v1 JSON wire codec of the typed API (api/api.hpp).
///
/// Hand-rolled on purpose: the repo takes no dependencies, and the
/// envelope is small enough that a strict, minimal parser beats a
/// vendored library.  One request or response per line of text:
///
///   {"v":1,"id":"7","op":"solve","problem":"cdpf","model":"bas a ..."}
///   {"v":1,"id":"7","code":"ok","kind":"front","engine":"bottom-up",...}
///
/// Each shape is described once in json.cpp and both directions visit
/// that description: the op names come from api::kOpNames, each op's
/// members from one fields() list, and the counter objects and simple
/// payloads from one members() list (their "kind" from kKinds).  Fronts,
/// batches, analyses, metrics and traces keep hand-written code.
///
/// Encoding is canonical — fixed member order, absent optional fields
/// omitted, analysis::format_num for doubles — so
/// encode(decode(encode(x))) == encode(x) byte-for-byte;
/// tests/test_api.cpp pins literal lines and a round-trip property over
/// random requests.  Request decoding is strict: unknown members, wrong
/// types, a missing/foreign "v", or trailing bytes produce a typed
/// ErrorCode naming the first bad member in fields() order, and the
/// recursion depth is capped so garbage can never blow the stack.
/// Response decoding is lenient: only the members a payload cannot do
/// without are required.
///
/// The generic json::Value layer is exposed for tests and tools.

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"

namespace atcd::api::json {

/// A parsed JSON document.  Objects keep member order (encoding is
/// order-sensitive); numbers are doubles (the wire format has no other
/// kind — session ids stay well under 2^53).
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> items;                              ///< Array
  std::vector<std::pair<std::string, Value>> members;    ///< Object

  const Value* find(const std::string& key) const;
};

/// Strict parse of one JSON document (no trailing bytes).  Returns
/// false and sets \p error on malformed input.
bool parse(const std::string& text, Value* out, std::string* error);

/// Compact canonical rendering (no whitespace, members in stored order,
/// doubles via analysis::format_num, minimal string escapes).
std::string dump(const Value& value);

/// The canonical number rendering dump() uses (format_num; non-finite
/// values become "null" so they surface as typed decode errors instead
/// of silently changing meaning on the wire).
std::string dump_number(double value);

/// The canonical string rendering dump() uses (quotes + escapes).
std::string dump_string(const std::string& value);

/// dump_number / dump_string appended to \p out, for encoders that
/// render into one buffer.
void append_number(std::string* out, double value);
void append_string(std::string* out, const std::string& value);

}  // namespace atcd::api::json

namespace atcd::api {

/// Hard upper bound on the byte length decode_request accepts.  Serving
/// loops enforce their own (smaller, configurable) line caps while the
/// bytes stream in; this constant is the decoder's last line of defense
/// for callers that hand it an already-materialized string.  Oversized
/// input yields a typed ErrorCode::Capacity, never an attempt to parse.
inline constexpr std::size_t kMaxDecodeBytes = 8u << 20;  // 8 MiB

/// Outcome of decoding a request or response line.
template <typename T>
struct Decoded {
  ErrorCode code = ErrorCode::Ok;
  std::string error;  ///< set when code != Ok
  T value;            ///< valid when code == Ok; on a payload-level
                      ///< failure value.id still carries the envelope id
                      ///< when one was readable, so the error response
                      ///< can be matched by the client
};

/// Canonical one-line JSON encoding of a request.
std::string encode_request(const Request& request);

/// Decodes one request line.  Envelope failures (bad JSON, missing
/// "v"/"op") yield MalformedRequest/UnsupportedVersion/UnknownOperation;
/// payload failures yield InvalidArgument with the offending field
/// named.
Decoded<Request> decode_request(const std::string& text);

/// Canonical one-line JSON encoding of a response.  `with_micros`
/// appends the wall-time member; the server omits it by default so
/// responses are byte-identical across runs and thread counts.
std::string encode_response(const Response& response, bool with_micros);

/// Decodes one response line (used by tests and programmatic clients).
Decoded<Response> decode_response(const std::string& text);

}  // namespace atcd::api
