#include "api/json.hpp"

#include <algorithm>
#include <concepts>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <type_traits>
#include <variant>

#include "analysis/analysis.hpp"

namespace atcd::api::json {
namespace {

/// Garbage input must never blow the stack.
constexpr int kMaxDepth = 64;

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  std::string err;

  bool fail(const std::string& what) {
    if (err.empty())
      err = what + " at byte " + std::to_string(i);
    return false;
  }

  void skip_ws() {
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r'))
      ++i;
  }

  bool literal(const char* word, std::size_t len) {
    if (s.compare(i, len, word) != 0) return fail("bad literal");
    i += len;
    return true;
  }

  bool parse_hex4(unsigned* out) {
    if (i + 4 > s.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = s[i + static_cast<std::size_t>(k)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("bad \\u escape");
    }
    i += 4;
    *out = v;
    return true;
  }

  static void append_utf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string* out) {
    if (i >= s.size() || s[i] != '"') return fail("expected string");
    ++i;
    out->clear();
    while (i < s.size()) {
      // Copy the run up to the next quote, escape or control byte in one
      // append.
      const std::size_t run = i;
      while (i < s.size() && s[i] != '"' && s[i] != '\\' &&
             static_cast<unsigned char>(s[i]) >= 0x20)
        ++i;
      out->append(s, run, i - run);
      if (i >= s.size()) break;
      const char c = s[i];
      if (c == '"') {
        ++i;
        return true;
      }
      if (c != '\\') return fail("unescaped control character in string");
      ++i;
      if (i >= s.size()) return fail("truncated escape");
      const char e = s[i++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(&cp)) return false;
          // Combine a surrogate pair; a lone surrogate is an error.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (i + 2 > s.size() || s[i] != '\\' || s[i + 1] != 'u')
              return fail("lone high surrogate");
            i += 2;
            unsigned lo = 0;
            if (!parse_hex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF)
              return fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(double* out) {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    if (i >= s.size() || s[i] < '0' || s[i] > '9')
      return fail("bad number");
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    if (i < s.size() && s[i] == '.') {
      ++i;
      if (i >= s.size() || s[i] < '0' || s[i] > '9')
        return fail("bad number fraction");
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (i >= s.size() || s[i] < '0' || s[i] > '9')
        return fail("bad number exponent");
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    }
    const std::string tok = s.substr(start, i - start);
    *out = std::strtod(tok.c_str(), nullptr);
    if (!std::isfinite(*out)) return fail("number out of range");
    return true;
  }

  bool parse_value(Value* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    const char c = s[i];
    if (c == 'n') {
      out->kind = Value::Kind::Null;
      return literal("null", 4);
    }
    if (c == 't') {
      out->kind = Value::Kind::Bool;
      out->boolean = true;
      return literal("true", 4);
    }
    if (c == 'f') {
      out->kind = Value::Kind::Bool;
      out->boolean = false;
      return literal("false", 5);
    }
    if (c == '"') {
      out->kind = Value::Kind::String;
      return parse_string(&out->string);
    }
    if (c == '[') {
      ++i;
      out->kind = Value::Kind::Array;
      skip_ws();
      if (i < s.size() && s[i] == ']') {
        ++i;
        return true;
      }
      while (true) {
        out->items.emplace_back();
        if (!parse_value(&out->items.back(), depth + 1)) return false;
        skip_ws();
        if (i >= s.size()) return fail("unterminated array");
        if (s[i] == ',') {
          ++i;
          continue;
        }
        if (s[i] == ']') {
          ++i;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++i;
      out->kind = Value::Kind::Object;
      skip_ws();
      if (i < s.size() && s[i] == '}') {
        ++i;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (i >= s.size() || s[i] != ':') return fail("expected ':'");
        ++i;
        out->members.emplace_back(std::move(key), Value{});
        if (!parse_value(&out->members.back().second, depth + 1))
          return false;
        skip_ws();
        if (i >= s.size()) return fail("unterminated object");
        if (s[i] == ',') {
          ++i;
          continue;
        }
        if (s[i] == '}') {
          ++i;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      out->kind = Value::Kind::Number;
      return parse_number(&out->number);
    }
    return fail("unexpected character");
  }
};

}  // namespace

void append_number(std::string* out, double v) {
  // JSON has no non-finite literals.  Emitting null (instead of a
  // silent 0) makes the receiving decoder reject the field with a
  // typed error, so an in-process caller who serializes e.g. an
  // infinite portfolio budget learns about it rather than having its
  // meaning inverted on the wire.
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  analysis::append_num(out, v);
}

void append_string(std::string* out, const std::string& s) {
  out->push_back('"');
  // Bytes that need no escape are copied a run at a time.
  std::size_t run = 0;
  for (std::size_t k = 0; k < s.size(); ++k) {
    const char c = s[k];
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
      continue;
    out->append(s, run, k - run);
    run = k + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        *out += buf;
      }
    }
  }
  out->append(s, run, s.size() - run);
  out->push_back('"');
}

namespace {

void dump_into(const Value& v, std::string* out) {
  switch (v.kind) {
    case Value::Kind::Null: *out += "null"; return;
    case Value::Kind::Bool: *out += v.boolean ? "true" : "false"; return;
    case Value::Kind::Number: append_number(out, v.number); return;
    case Value::Kind::String: append_string(out, v.string); return;
    case Value::Kind::Array: {
      out->push_back('[');
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i) out->push_back(',');
        dump_into(v.items[i], out);
      }
      out->push_back(']');
      return;
    }
    case Value::Kind::Object: {
      out->push_back('{');
      for (std::size_t i = 0; i < v.members.size(); ++i) {
        if (i) out->push_back(',');
        append_string(out, v.members[i].first);
        out->push_back(':');
        dump_into(v.members[i].second, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

const Value* Value::find(const std::string& key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

bool parse(const std::string& text, Value* out, std::string* error) {
  Parser p{text, 0, {}};
  *out = Value{};
  if (!p.parse_value(out, 0)) {
    if (error) *error = p.err;
    return false;
  }
  p.skip_ws();
  if (p.i != text.size()) {
    if (error) *error = "trailing bytes after document";
    return false;
  }
  return true;
}

std::string dump(const Value& value) {
  std::string out;
  dump_into(value, &out);
  return out;
}

std::string dump_number(double value) {
  std::string out;
  append_number(&out, value);
  return out;
}

std::string dump_string(const std::string& value) {
  std::string out;
  append_string(&out, value);
  return out;
}

}  // namespace atcd::api::json

namespace atcd::api {
namespace {

using json::Value;

/// Canonical-order object writer for the encoders.
class Obj {
 public:
  Obj() : out_("{") {}

  void str(const char* key, const std::string& v) {
    json::append_string(&member(key), v);
  }
  void num(const char* key, double v) {
    json::append_number(&member(key), v);
  }
  void uint(const char* key, std::uint64_t v) {
    begin(key);
    out_ += std::to_string(v);
  }
  void boolean(const char* key, bool v) {
    begin(key);
    out_ += v ? "true" : "false";
  }
  /// Pre-rendered JSON (arrays / nested objects).
  void raw(const char* key, const std::string& rendered) {
    member(key) += rendered;
  }
  /// Opens member \p key and returns the buffer, for a value the caller
  /// renders in place.
  std::string& member(const char* key) {
    begin(key);
    return out_;
  }

  std::string close() {
    out_ += '}';
    return std::move(out_);
  }

 private:
  void begin(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
  bool first_ = true;
};

std::string string_array(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    json::append_string(&out, xs[i]);
  }
  out += ']';
  return out;
}

std::string hash_hex(service::CanonHash h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// A JSON number that is a non-negative integer.  Capped at 2^53: a
/// larger double is not exactly representable and the cast would be
/// undefined behavior.
bool as_uint(const Value& v, std::uint64_t* out) {
  if (v.kind != Value::Kind::Number || v.number < 0.0 ||
      std::floor(v.number) != v.number || v.number > 9.007199254740992e15)
    return false;
  *out = static_cast<std::uint64_t>(v.number);
  return true;
}

bool takes_value(EditOp op) {
  return op == EditOp::SetCost || op == EditOp::SetProb ||
         op == EditOp::SetDamage;
}

/// The range an optional request number must lie in, as its decode
/// error names it ("bad <key> (must be <text>)").
struct Rule {
  bool (*holds)(double);
  const char* text;
};
const Rule kFinite{[](double x) { return std::isfinite(x); }, "finite"};
const Rule kPositive{[](double x) { return std::isfinite(x) && x > 0.0; },
                     "> 0"};
const Rule kNonNegative{
    [](double x) { return std::isfinite(x) && x >= 0.0; }, ">= 0"};

// ---------------------------------------------------------------------------
// Member lists: the one description of each request op and of each
// response object without custom code.  Both directions visit them, so a
// member's name, order and presence rule live in exactly one place; the
// call order is the encoding order and the order in which the request
// decoder reports the first bad member.
// ---------------------------------------------------------------------------

/// Request members of each op (stats, metrics and quit have none).
template <class V, class R>
void fields(V& v, R& r) {
  using T = std::remove_const_t<R>;
  if constexpr (std::is_same_v<T, SolveSpec>) {
    v.req("problem", r.problem);
    v.opt("bound", r.bound, r.has_bound, kFinite);
    v.opt("engine", r.engine);
    v.req("model", r.model);
  } else if constexpr (std::is_same_v<T, SolveRequest> ||
                       std::is_same_v<T, SessionOpenRequest>) {
    fields(v, r.spec);
  } else if constexpr (std::is_same_v<T, BatchRequest>) {
    v.opt("threads", r.threads);
    v.items("items", r.items);
  } else if constexpr (std::is_same_v<T, SessionEditRequest>) {
    v.req("session", r.session);
    v.req("edit", r.op);
    v.req("target", r.target);
    v.operand("value", r.value, takes_value(r.op), r.op);
    v.operand("model", r.model, r.op == EditOp::ReplaceSubtree, r.op);
  } else if constexpr (std::is_same_v<T, SessionResolveRequest> ||
                       std::is_same_v<T, SessionCloseRequest>) {
    v.req("session", r.session);
  } else if constexpr (std::is_same_v<T, AnalyzeSweepRequest>) {
    v.req("problem", r.problem);
    v.req("axes", r.axes);
    v.opt("bound", r.bound, r.has_bound, kFinite);
    v.opt("engine", r.engine);
    v.req("model", r.model);
  } else if constexpr (std::is_same_v<T, AnalyzeSensitivityRequest>) {
    v.req("problem", r.problem);
    v.opt("step", r.step, r.has_step, kPositive);
    v.opt("engine", r.engine);
    v.req("model", r.model);
  } else if constexpr (std::is_same_v<T, AnalyzePortfolioRequest>) {
    v.req("problem", r.problem);
    v.req("defenses", r.defenses);
    v.opt("budget", r.budget, r.has_budget, kNonNegative);
    v.opt("bound", r.bound, r.has_bound, kFinite);
    v.opt("engine", r.engine);
    v.req("model", r.model);
  } else if constexpr (std::is_same_v<T, SnapshotSaveRequest> ||
                       std::is_same_v<T, SnapshotLoadRequest>) {
    v.req("path", r.path);
  }
}

/// Response members of the counter objects and of the payloads whose
/// "kind" (kKinds) is their only other member.  Every member is
/// written; the lenient decoder requires only the req() ones.
template <class V, class P>
void members(V& v, P& p) {
  using T = std::remove_const_t<P>;
  if constexpr (std::is_same_v<T, service::ResultCache::Stats> ||
                std::is_same_v<T, service::SubtreeCache::Stats>) {
    v.field("hits", p.hits);
    v.field("misses", p.misses);
    v.field("insertions", p.insertions);
    v.field("evictions", p.evictions);
    v.field("collisions", p.collisions);
    v.field("entries", p.entries);
    v.field("bytes", p.bytes);
  } else if constexpr (std::is_same_v<T, DispatchCounters>) {
    v.field("requests", p.requests);
    v.field("solves", p.solves);
    v.field("batches", p.batches);
    v.field("session_opens", p.session_opens);
    v.field("session_edits", p.session_edits);
    v.field("session_resolves", p.session_resolves);
    v.field("session_closes", p.session_closes);
    v.field("analyses", p.analyses);
    v.field("errors", p.errors);
  } else if constexpr (std::is_same_v<T, PersistCounters>) {
    v.field("saves", p.saves);
    v.field("loads", p.loads);
    v.field("save_errors", p.save_errors);
    v.field("load_errors", p.load_errors);
    v.field("snapshot_bytes", p.snapshot_bytes);
  } else if constexpr (std::is_same_v<T, LatencySummary>) {
    v.field("count", p.count);
    v.field("sum_micros", p.sum_micros);
    v.field("p50", p.p50);
    v.field("p95", p.p95);
    v.field("p99", p.p99);
  } else if constexpr (std::is_same_v<T, SessionOpenedPayload>) {
    v.req("session", p.session);
  } else if constexpr (std::is_same_v<T, StatsPayload>) {
    v.obj("cache", p.cache);
    v.obj("subtree", p.subtree);
    v.field("sessions", p.sessions);
    v.obj("api", p.api);
    v.obj("persist", p.persist);
    // Wall-clock data, gated like the envelope's micros field: stats
    // responses stay byte-deterministic when timing echo is off.
    if (v.timing()) v.obj("latency", p.latency);
  } else if constexpr (std::is_same_v<T, ShutdownPayload>) {
    v.field("handled", p.handled);
  } else if constexpr (std::is_same_v<T, SnapshotPayload>) {
    v.req("action", p.action);
    v.field("path", p.path);
    v.field("result_entries", p.result_entries);
    v.field("subtree_entries", p.subtree_entries);
    v.field("file_bytes", p.file_bytes);
  }
}

/// The "kind" member of each Payload alternative.  An empty payload has
/// none; a solve payload's is "front" or "attack" (SolvePayload::is_front).
constexpr const char* kKinds[] = {
    nullptr,    nullptr,  "batch", "session",  "edited",  "closed",
    "analysis", "stats",  "metrics", "shutdown", "snapshot"};
static_assert(std::size(kKinds) == std::variant_size_v<Payload>,
              "kKinds must cover every Payload alternative");

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

/// Writes the members fields() and members() name, in their order,
/// leaving out absent optional request members.
struct Encoder {
  Obj& o;
  bool with_timing = false;

  void req(const char* key, const std::string& x) { o.str(key, x); }
  void req(const char* key, std::uint64_t x) { o.uint(key, x); }
  void req(const char* key, engine::Problem x) {
    o.str(key, engine::to_string(x));
  }
  void req(const char* key, EditOp x) { o.str(key, to_string(x)); }
  void req(const char* key, const std::vector<std::string>& xs) {
    o.raw(key, string_array(xs));
  }
  void opt(const char* key, const std::string& x) {
    if (!x.empty()) o.str(key, x);
  }
  void opt(const char* key, double x, bool present, const Rule&) {
    if (present) o.num(key, x);
  }
  /// A count where 0 means "absent" (BatchRequest::threads).
  void opt(const char* key, std::size_t x) {
    if (x != 0) o.uint(key, x);
  }
  void items(const char* key, const std::vector<SolveSpec>& specs) {
    std::string& out = o.member(key);
    out += '[';
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (i) out += ',';
      Obj item;
      Encoder e{item};
      fields(e, specs[i]);
      out += item.close();
    }
    out += ']';
  }
  void operand(const char* key, double x, bool wanted, EditOp) {
    if (wanted) o.num(key, x);
  }
  void operand(const char* key, const std::string& x, bool wanted, EditOp) {
    if (wanted) o.str(key, x);
  }

  template <std::unsigned_integral U>
  void field(const char* key, U x) {
    o.uint(key, x);
  }
  void field(const char* key, double x) { o.num(key, x); }
  void field(const char* key, const std::string& x) { o.str(key, x); }
  template <class S>
  void obj(const char* key, const S& s) {
    Obj nested;
    Encoder e{nested, with_timing};
    members(e, s);
    o.raw(key, nested.close());
  }
  bool timing() const { return with_timing; }
};

void encode_solve_fields(Obj* o, const SolvePayload& p) {
  o->str("kind", p.is_front ? "front" : "attack");
  o->str("problem", engine::to_string(p.problem));
  o->str("engine", p.backend);
  o->str("cache", p.cache);
  o->str("hash", hash_hex(p.hash));
  if (p.is_front) {
    // Fronts run to hundreds of points: render them straight into the
    // response, in Obj's member order.
    std::string& out = o->member("points");
    out += '[';
    for (std::size_t i = 0; i < p.points.size(); ++i) {
      out += i ? ",{\"cost\":" : "{\"cost\":";
      json::append_number(&out, p.points[i].cost);
      out += ",\"damage\":";
      json::append_number(&out, p.points[i].damage);
      out += ",\"attack\":";
      json::append_string(&out, p.points[i].attack);
      out += '}';
    }
    out += ']';
  } else {
    o->boolean("feasible", p.feasible);
    if (p.feasible) {
      o->num("cost", p.cost);
      o->num("damage", p.damage);
      o->str("attack", p.attack);
    }
  }
}

std::vector<std::string> table_rows(const std::string& table) {
  std::vector<std::string> rows;
  std::size_t start = 0;
  while (start < table.size()) {
    std::size_t nl = table.find('\n', start);
    if (nl == std::string::npos) nl = table.size();
    rows.push_back(table.substr(start, nl - start));
    start = nl + 1;
  }
  return rows;
}

/// Payload members after "kind"; the ones without custom code come from
/// members().
template <class P>
void encode_payload(Encoder& e, const P& p) {
  members(e, p);
}
void encode_payload(Encoder& e, const SolvePayload& p) {
  encode_solve_fields(&e.o, p);
}
void encode_payload(Encoder& e, const BatchPayload& p) {
  std::string items = "[";
  for (std::size_t i = 0; i < p.items.size(); ++i) {
    if (i) items += ',';
    Obj q;
    q.str("code", to_string(p.items[i].code));
    if (p.items[i].code == ErrorCode::Ok)
      encode_solve_fields(&q, p.items[i].solve);
    else
      q.str("error", p.items[i].error);
    items += q.close();
  }
  items += ']';
  e.o.raw("items", items);
}
void encode_payload(Encoder& e, const AnalysisPayload& p) {
  e.o.str("analysis", p.kind);
  e.o.raw("rows", string_array(table_rows(p.table)));
}
void encode_payload(Encoder& e, const MetricsPayload& p) {
  // `json` is already a canonical JSON object (Registry::to_json), so it
  // embeds verbatim; the Prometheus text travels as a string.
  e.o.raw("metrics", p.json);
  e.o.str("text", p.text);
}

// ---------------------------------------------------------------------------
// Request decoding.
// ---------------------------------------------------------------------------

/// Strict decoder over one request object: reads the members fields()
/// names, marks each consumed, and keeps the first error, after which it
/// reads nothing more.  leftover() then names any member no field read.
class Decoder {
 public:
  explicit Decoder(const Value& obj) : obj_(obj), used_(obj.members.size()) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// The member \p key, marked consumed; null when absent or after an
  /// error.
  const Value* get(const char* key) {
    if (!ok()) return nullptr;
    for (std::size_t i = 0; i < obj_.members.size(); ++i)
      if (obj_.members[i].first == key) {
        used_[i] = true;
        return &obj_.members[i].second;
      }
    return nullptr;
  }

  /// First member not consumed and not in the envelope set; empty when
  /// everything was recognized.
  std::string leftover() const {
    for (std::size_t i = 0; i < obj_.members.size(); ++i) {
      const std::string& k = obj_.members[i].first;
      if (!used_[i] && k != "v" && k != "id" && k != "op") return k;
    }
    return {};
  }

  void req(const char* key, std::string& out) {
    if (const Value* v = need(key)) string(key, *v, out);
  }
  void req(const char* key, std::uint64_t& out) {
    if (const Value* v = need(key); v && !as_uint(*v, &out))
      fail(std::string("field \"") + key +
           "\" must be a non-negative integer");
  }
  void req(const char* key, engine::Problem& out) {
    std::string name;
    req(key, name);
    if (!ok()) return;
    if (const auto p = parse_problem(name))
      out = *p;
    else
      fail("unknown problem '" + name +
           "' (expected cdpf|dgc|cgd|cedpf|edgc|cged)");
  }
  void req(const char* key, EditOp& out) {
    std::string name;
    req(key, name);
    if (!ok()) return;
    if (const auto op = parse_edit_op(name))
      out = *op;
    else
      fail("unknown edit op '" + name +
           "' (expected set-cost, set-prob, set-damage, toggle-defense, or "
           "replace-subtree)");
  }
  void req(const char* key, std::vector<std::string>& out) {
    const Value* v = need(key);
    if (!v) return;
    const auto strings = [](const Value& a) {
      return a.kind == Value::Kind::Array &&
             std::all_of(a.items.begin(), a.items.end(), [](const Value& x) {
               return x.kind == Value::Kind::String;
             });
    };
    if (!strings(*v))
      return fail(std::string("field \"") + key +
                  "\" must be an array of strings");
    for (const Value& item : v->items) out.push_back(item.string);
  }
  void opt(const char* key, std::string& out) {
    if (const Value* v = get(key)) string(key, *v, out);
  }
  void opt(const char* key, double& out, bool& present, const Rule& rule) {
    const Value* v = get(key);
    if (!v || !number(key, *v, out)) return;
    present = true;
    if (!rule.holds(out))
      fail(std::string("bad ") + key + " (must be " + rule.text + ")");
  }
  void opt(const char* key, std::size_t& out) {
    double n = 0.0;
    const Value* v = get(key);
    if (!v || !number(key, *v, n)) return;
    if (n < 0.0 || std::floor(n) != n || n > 65536.0)
      return fail(std::string("field \"") + key +
                  "\" must be a small non-negative integer");
    out = static_cast<std::size_t>(n);
  }
  void items(const char* key, std::vector<SolveSpec>& out) {
    const Value* v = need(key);
    if (!v) return;
    if (v->kind != Value::Kind::Array)
      return fail(std::string("field \"") + key + "\" must be an array");
    for (std::size_t i = 0; i < v->items.size(); ++i) {
      const Value& item = v->items[i];
      const auto where = [i] { return "batch item " + std::to_string(i); };
      if (item.kind != Value::Kind::Object)
        return fail(where() + " must be an object");
      Decoder d(item);
      SolveSpec spec;
      fields(d, spec);
      if (!d.ok()) return fail(where() + ": " + d.error());
      // Items have no envelope of their own: leftover() must not excuse
      // v/id/op here.
      if (item.find("v") || item.find("id") || item.find("op") ||
          !d.leftover().empty())
        return fail(where() + ": unknown field");
      out.push_back(std::move(spec));
    }
  }
  /// An edit operand: required when \p wanted, rejected otherwise.
  void operand(const char* key, double& out, bool wanted, EditOp op) {
    const Value* v = get(key);
    const bool present = v && number(key, *v, out);
    if (!ok()) return;
    if (wanted && (!present || !std::isfinite(out)))
      fail("edit " + std::string(to_string(op)) + " needs a finite \"" + key +
           "\"");
    else if (!wanted && present)
      fail("edit " + std::string(to_string(op)) + " takes no \"" + key +
           "\"");
  }
  void operand(const char* key, std::string& out, bool wanted, EditOp op) {
    const Value* v = get(key);
    const bool present = v && string(key, *v, out);
    if (!ok()) return;
    if (wanted && !present)
      fail("edit " + std::string(to_string(op)) + " needs a \"" + key +
           "\"");
    else if (!wanted && present)
      fail("edit " + std::string(to_string(op)) + " takes no \"" + key +
           "\"");
  }

 private:
  void fail(std::string message) {
    if (ok()) error_ = std::move(message);
  }
  const Value* need(const char* key) {
    const Value* v = get(key);
    if (!v) fail(std::string("missing field \"") + key + "\"");
    return v;
  }
  bool string(const char* key, const Value& v, std::string& out) {
    if (v.kind != Value::Kind::String) {
      fail(std::string("field \"") + key + "\" must be a string");
      return false;
    }
    out = v.string;
    return true;
  }
  bool number(const char* key, const Value& v, double& out) {
    if (v.kind != Value::Kind::Number) {
      fail(std::string("field \"") + key + "\" must be a finite number");
      return false;
    }
    out = v.number;
    return true;
  }

  const Value& obj_;
  std::vector<char> used_;
  std::string error_;
};

std::string unknown_op_message(const std::string& op) {
  std::string m = "unknown op '" + op + "' (expected ";
  for (std::size_t i = 0; i < std::size(kOpNames); ++i) {
    if (i) m += i + 1 == std::size(kOpNames) ? ", or " : ", ";
    m += kOpNames[i];
  }
  return m + ")";
}

// ---------------------------------------------------------------------------
// Response decoding (lenient: tests and programmatic clients).
// ---------------------------------------------------------------------------

bool read_uint(const Value& obj, const char* key, std::uint64_t* out) {
  const Value* v = obj.find(key);
  return v && as_uint(*v, out);
}

bool read_string(const Value& obj, const char* key, std::string* out) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::Kind::String) return false;
  *out = v->string;
  return true;
}

bool read_number(const Value& obj, const char* key, double* out) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::Kind::Number) return false;
  *out = v->number;
  return true;
}

/// Reads the members members() names that are present and well typed;
/// a missing req() member is the only error.
struct Reader {
  const Value& in;
  std::string error;

  template <std::unsigned_integral U>
  void field(const char* key, U& x) {
    if (std::uint64_t n = 0; read_uint(in, key, &n)) x = static_cast<U>(n);
  }
  void field(const char* key, double& x) { read_number(in, key, &x); }
  void field(const char* key, std::string& x) { read_string(in, key, &x); }
  void req(const char* key, std::uint64_t& x) {
    if (!read_uint(in, key, &x)) missing(key);
  }
  void req(const char* key, std::string& x) {
    if (!read_string(in, key, &x)) missing(key);
  }
  template <class S>
  void obj(const char* key, S& s) {
    const Value* v = in.find(key);
    if (!v || v->kind != Value::Kind::Object) return;
    Reader nested{*v, {}};
    members(nested, s);
  }
  bool timing() const { return true; }

  void missing(const char* key) {
    if (error.empty()) error = std::string("missing \"") + key + "\"";
  }
};

bool decode_solve_payload(const Value& obj, const std::string& kind,
                          SolvePayload* p, std::string* err) {
  p->is_front = kind == "front";
  std::string problem;
  if (!read_string(obj, "problem", &problem)) {
    *err = "missing \"problem\"";
    return false;
  }
  const auto prob = parse_problem(problem);
  if (!prob) {
    *err = "unknown problem in response";
    return false;
  }
  p->problem = *prob;
  read_string(obj, "engine", &p->backend);
  read_string(obj, "cache", &p->cache);
  std::string hash;
  if (read_string(obj, "hash", &hash))
    p->hash = static_cast<service::CanonHash>(
        std::strtoull(hash.c_str(), nullptr, 16));
  if (p->is_front) {
    const Value* pts = obj.find("points");
    if (!pts || pts->kind != Value::Kind::Array) {
      *err = "missing \"points\"";
      return false;
    }
    for (const Value& pt : pts->items) {
      if (pt.kind != Value::Kind::Object) {
        *err = "bad point";
        return false;
      }
      FrontPointPayload fp;
      if (!read_number(pt, "cost", &fp.cost) ||
          !read_number(pt, "damage", &fp.damage) ||
          !read_string(pt, "attack", &fp.attack)) {
        *err = "bad point";
        return false;
      }
      p->points.push_back(std::move(fp));
    }
  } else {
    const Value* f = obj.find("feasible");
    if (!f || f->kind != Value::Kind::Bool) {
      *err = "missing \"feasible\"";
      return false;
    }
    p->feasible = f->boolean;
    if (p->feasible &&
        (!read_number(obj, "cost", &p->cost) ||
         !read_number(obj, "damage", &p->damage) ||
         !read_string(obj, "attack", &p->attack))) {
      *err = "missing attack fields";
      return false;
    }
  }
  return true;
}

/// Payload members after "kind", mirroring encode_payload; returns the
/// error message, empty on success.  Solve payloads (kind front/attack)
/// decode before the kKinds lookup and never reach here.
template <class P>
std::string decode_payload(const Value& doc, P& p) {
  Reader r{doc, {}};
  members(r, p);
  return r.error;
}
std::string decode_payload(const Value& doc, BatchPayload& p) {
  const Value* items = doc.find("items");
  if (!items || items->kind != Value::Kind::Array) return "missing \"items\"";
  for (const Value& item : items->items) {
    if (item.kind != Value::Kind::Object) return "bad batch item";
    BatchPayload::Item bi;
    std::string icode;
    if (!read_string(item, "code", &icode)) return "bad batch item";
    const auto iec = parse_error_code(icode);
    if (!iec) return "bad batch item code";
    bi.code = *iec;
    if (bi.code == ErrorCode::Ok) {
      std::string ikind, err;
      if (!read_string(item, "kind", &ikind) ||
          !decode_solve_payload(item, ikind, &bi.solve, &err))
        return "bad batch item: " + err;
    } else {
      read_string(item, "error", &bi.error);
    }
    p.items.push_back(std::move(bi));
  }
  return {};
}
std::string decode_payload(const Value& doc, AnalysisPayload& p) {
  if (!read_string(doc, "analysis", &p.kind)) return "missing \"analysis\"";
  const Value* rows = doc.find("rows");
  if (!rows || rows->kind != Value::Kind::Array) return "missing \"rows\"";
  for (const Value& row : rows->items) {
    if (row.kind != Value::Kind::String) return "bad row";
    p.table += row.string;
    p.table += '\n';
  }
  return {};
}
std::string decode_payload(const Value& doc, MetricsPayload& p) {
  const Value* m = doc.find("metrics");
  if (!m || m->kind != Value::Kind::Object) return "missing \"metrics\"";
  // Re-dump the embedded registry object; both sides use the same
  // canonical number rendering, so this is byte-stable.
  p.json = json::dump(*m);
  if (!read_string(doc, "text", &p.text)) return "missing \"text\"";
  return {};
}

}  // namespace

std::string encode_request(const Request& request) {
  Obj o;
  o.uint("v", static_cast<std::uint64_t>(kVersion));
  if (!request.id.empty()) o.str("id", request.id);
  o.str("op", op_name(request.op));
  if (request.trace) o.boolean("trace", true);
  Encoder e{o};
  std::visit([&](const auto& r) { fields(e, r); }, request.op);
  return o.close();
}

Decoded<Request> decode_request(const std::string& text) {
  Decoded<Request> out;
  const auto fail = [&](ErrorCode code, std::string msg) {
    out.code = code;
    out.error = std::move(msg);
    return out;
  };

  // Hard ceiling at the decoder entry: even a transport that forgot to
  // cap its reads cannot make the parser chew an unbounded document.
  if (text.size() > kMaxDecodeBytes)
    return fail(ErrorCode::Capacity,
                "request exceeds " + std::to_string(kMaxDecodeBytes) +
                    " bytes");

  Value doc;
  std::string perr;
  if (!json::parse(text, &doc, &perr))
    return fail(ErrorCode::MalformedRequest, "bad JSON: " + perr);
  if (doc.kind != Value::Kind::Object)
    return fail(ErrorCode::MalformedRequest, "request must be a JSON object");

  // The id is extracted before anything can fail below, so even a
  // payload-level error response can be matched by the client.
  if (const Value* id = doc.find("id")) {
    if (id->kind == Value::Kind::String)
      out.value.id = id->string;
    else if (id->kind == Value::Kind::Number)
      out.value.id = analysis::format_num(id->number);
    else
      return fail(ErrorCode::MalformedRequest,
                  "field \"id\" must be a string or number");
  }

  const Value* v = doc.find("v");
  if (!v)
    return fail(ErrorCode::MalformedRequest, "missing envelope field \"v\"");
  if (v->kind != Value::Kind::Number ||
      v->number != static_cast<double>(kVersion))
    return fail(ErrorCode::UnsupportedVersion,
                "unsupported envelope version (this server speaks v1)");

  const Value* op = doc.find("op");
  if (!op || op->kind != Value::Kind::String)
    return fail(ErrorCode::MalformedRequest,
                "missing envelope field \"op\"");

  Decoder d(doc);
  // Envelope-level opt-in, legal on every op (consumed before the
  // leftover check so it never reads as an unknown field).
  if (const Value* tr = d.get("trace")) {
    if (tr->kind != Value::Kind::Bool)
      return fail(ErrorCode::MalformedRequest,
                  "field \"trace\" must be a boolean");
    out.value.trace = tr->boolean;
  }
  std::optional<Operation> operation = make_operation(op->string);
  if (!operation)
    return fail(ErrorCode::UnknownOperation, unknown_op_message(op->string));
  std::visit([&](auto& r) { fields(d, r); }, *operation);
  if (!d.ok()) return fail(ErrorCode::InvalidArgument, d.error());
  if (const std::string stray = d.leftover(); !stray.empty())
    return fail(ErrorCode::InvalidArgument,
                "unknown field \"" + stray + "\" for op '" + op->string +
                    "'");
  out.value.op = std::move(*operation);
  return out;
}

std::string encode_response(const Response& response, bool with_micros) {
  Obj o;
  o.uint("v", static_cast<std::uint64_t>(kVersion));
  if (!response.id.empty()) o.str("id", response.id);
  o.str("code", to_string(response.code));
  if (response.code != ErrorCode::Ok) {
    o.str("error", response.error);
  } else {
    if (const char* kind = kKinds[response.payload.index()])
      o.str("kind", kind);
    Encoder e{o, with_micros};
    std::visit([&](const auto& p) { encode_payload(e, p); },
               response.payload);
  }
  if (response.trace) {
    // Emitted on error responses too: a traced request that failed
    // still shows where the time went.  Facts are sorted by name so the
    // rendering is deterministic regardless of recording order.
    std::string spans = "[";
    for (std::size_t i = 0; i < response.trace->spans.size(); ++i) {
      if (i) spans += ',';
      const TraceSpanPayload& s = response.trace->spans[i];
      Obj q;
      q.str("name", s.name);
      q.uint("depth", s.depth);
      q.uint("start_us", s.start_us);
      q.uint("dur_us", s.dur_us);
      spans += q.close();
    }
    spans += ']';
    auto facts = response.trace->facts;
    std::sort(facts.begin(), facts.end());
    Obj fo;
    for (const auto& [name, v] : facts) fo.uint(name.c_str(), v);
    Obj t;
    t.raw("spans", spans);
    t.raw("facts", fo.close());
    o.raw("trace", t.close());
  }
  if (with_micros) o.num("micros", response.micros);
  return o.close();
}

Decoded<Response> decode_response(const std::string& text) {
  Decoded<Response> out;
  const auto fail = [&](std::string msg) {
    out.code = ErrorCode::MalformedRequest;
    out.error = std::move(msg);
    return out;
  };

  Value doc;
  std::string perr;
  if (!json::parse(text, &doc, &perr)) return fail("bad JSON: " + perr);
  if (doc.kind != Value::Kind::Object)
    return fail("response must be a JSON object");

  std::uint64_t version = 0;
  if (!read_uint(doc, "v", &version) ||
      version != static_cast<std::uint64_t>(kVersion))
    return fail("missing or foreign envelope version");
  if (const Value* id = doc.find("id")) {
    if (id->kind != Value::Kind::String)
      return fail("field \"id\" must be a string");
    out.value.id = id->string;
  }
  std::string code;
  if (!read_string(doc, "code", &code)) return fail("missing \"code\"");
  const auto ec = parse_error_code(code);
  if (!ec) return fail("unknown code '" + code + "'");
  out.value.code = *ec;
  read_number(doc, "micros", &out.value.micros);

  if (const Value* tr = doc.find("trace")) {
    if (tr->kind != Value::Kind::Object) return fail("bad \"trace\"");
    TracePayload tp;
    if (const Value* spans = tr->find("spans")) {
      if (spans->kind != Value::Kind::Array) return fail("bad trace spans");
      for (const Value& sv : spans->items) {
        if (sv.kind != Value::Kind::Object) return fail("bad trace span");
        TraceSpanPayload sp;
        if (!read_string(sv, "name", &sp.name) ||
            !read_uint(sv, "depth", &sp.depth) ||
            !read_uint(sv, "start_us", &sp.start_us) ||
            !read_uint(sv, "dur_us", &sp.dur_us))
          return fail("bad trace span");
        tp.spans.push_back(std::move(sp));
      }
    }
    if (const Value* facts = tr->find("facts")) {
      if (facts->kind != Value::Kind::Object) return fail("bad trace facts");
      for (const auto& [name, fv] : facts->members) {
        std::uint64_t n = 0;
        if (!as_uint(fv, &n)) return fail("bad trace fact");
        tp.facts.emplace_back(name, n);
      }
    }
    out.value.trace = std::move(tp);
  }

  if (out.value.code != ErrorCode::Ok) {
    read_string(doc, "error", &out.value.error);
    return out;
  }

  std::string kind;
  if (!read_string(doc, "kind", &kind)) return out;  // bare ok
  if (kind == "front" || kind == "attack") {
    SolvePayload p;
    std::string err;
    if (!decode_solve_payload(doc, kind, &p, &err)) return fail(err);
    out.value.payload = std::move(p);
    return out;
  }
  std::optional<Payload> payload =
      detail::alternative_named<Payload>(kKinds, kind);
  if (!payload) return fail("unknown kind '" + kind + "'");
  const std::string err =
      std::visit([&](auto& p) { return decode_payload(doc, p); }, *payload);
  if (!err.empty()) return fail(err);
  out.value.payload = std::move(*payload);
  return out;
}

}  // namespace atcd::api
