#include "api/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

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

std::string quoted(const std::string& s) { return json::dump_string(s); }

std::string string_array(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ',';
    out += quoted(xs[i]);
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

// ---------------------------------------------------------------------------
// Request encoding.
// ---------------------------------------------------------------------------

void encode_spec_fields(Obj* o, const SolveSpec& s) {
  o->str("problem", engine::to_string(s.problem));
  if (s.has_bound) o->num("bound", s.bound);
  if (!s.engine.empty()) o->str("engine", s.engine);
  o->str("model", s.model);
}

std::string encode_spec(const SolveSpec& s) {
  Obj o;
  encode_spec_fields(&o, s);
  return o.close();
}

struct RequestEncoder {
  Obj& o;

  void operator()(const SolveRequest& r) { encode_spec_fields(&o, r.spec); }
  void operator()(const BatchRequest& r) {
    if (r.threads != 0) o.uint("threads", r.threads);
    std::string items = "[";
    for (std::size_t i = 0; i < r.items.size(); ++i) {
      if (i) items += ',';
      items += encode_spec(r.items[i]);
    }
    items += ']';
    o.raw("items", items);
  }
  void operator()(const SessionOpenRequest& r) {
    encode_spec_fields(&o, r.spec);
  }
  void operator()(const SessionEditRequest& r) {
    o.uint("session", r.session);
    o.str("edit", to_string(r.op));
    o.str("target", r.target);
    if (r.op == EditOp::SetCost || r.op == EditOp::SetProb ||
        r.op == EditOp::SetDamage)
      o.num("value", r.value);
    if (r.op == EditOp::ReplaceSubtree) o.str("model", r.model);
  }
  void operator()(const SessionResolveRequest& r) {
    o.uint("session", r.session);
  }
  void operator()(const SessionCloseRequest& r) { o.uint("session", r.session); }
  void operator()(const AnalyzeSweepRequest& r) {
    o.str("problem", engine::to_string(r.problem));
    o.raw("axes", string_array(r.axes));
    if (r.has_bound) o.num("bound", r.bound);
    if (!r.engine.empty()) o.str("engine", r.engine);
    o.str("model", r.model);
  }
  void operator()(const AnalyzeSensitivityRequest& r) {
    o.str("problem", engine::to_string(r.problem));
    if (r.has_step) o.num("step", r.step);
    if (!r.engine.empty()) o.str("engine", r.engine);
    o.str("model", r.model);
  }
  void operator()(const AnalyzePortfolioRequest& r) {
    o.str("problem", engine::to_string(r.problem));
    o.raw("defenses", string_array(r.defenses));
    if (r.has_budget) o.num("budget", r.budget);
    if (r.has_bound) o.num("bound", r.bound);
    if (!r.engine.empty()) o.str("engine", r.engine);
    o.str("model", r.model);
  }
  void operator()(const StatsRequest&) {}
  void operator()(const MetricsRequest&) {}
  void operator()(const ShutdownRequest&) {}
  void operator()(const SnapshotSaveRequest& r) { o.str("path", r.path); }
  void operator()(const SnapshotLoadRequest& r) { o.str("path", r.path); }
};

// ---------------------------------------------------------------------------
// Request decoding.
// ---------------------------------------------------------------------------

/// Strict field cursor over one object: typed getters mark fields
/// consumed; leftover() names any member the op does not define.
class Fields {
 public:
  explicit Fields(const Value& obj) : obj_(obj), used_(obj.members.size()) {}

  const Value* get(const std::string& key) {
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

 private:
  const Value& obj_;
  std::vector<char> used_;
};

struct FieldError {
  ErrorCode code = ErrorCode::Ok;
  std::string message;
  bool ok() const { return code == ErrorCode::Ok; }
  static FieldError invalid(std::string m) {
    return {ErrorCode::InvalidArgument, std::move(m)};
  }
};

FieldError require_string(Fields& f, const char* key, std::string* out) {
  const Value* v = f.get(key);
  if (!v) return FieldError::invalid(std::string("missing field \"") + key +
                                     "\"");
  if (v->kind != Value::Kind::String)
    return FieldError::invalid(std::string("field \"") + key +
                               "\" must be a string");
  *out = v->string;
  return {};
}

FieldError optional_string(Fields& f, const char* key, std::string* out) {
  const Value* v = f.get(key);
  if (!v) return {};
  if (v->kind != Value::Kind::String)
    return FieldError::invalid(std::string("field \"") + key +
                               "\" must be a string");
  *out = v->string;
  return {};
}

FieldError optional_number(Fields& f, const char* key, double* out,
                           bool* present) {
  const Value* v = f.get(key);
  if (!v) return {};
  if (v->kind != Value::Kind::Number)
    return FieldError::invalid(std::string("field \"") + key +
                               "\" must be a finite number");
  *out = v->number;
  if (present) *present = true;
  return {};
}

FieldError require_uint(Fields& f, const char* key, std::uint64_t* out) {
  const Value* v = f.get(key);
  if (!v) return FieldError::invalid(std::string("missing field \"") + key +
                                     "\"");
  if (v->kind != Value::Kind::Number || v->number < 0.0 ||
      std::floor(v->number) != v->number || v->number > 9.007199254740992e15)
    return FieldError::invalid(std::string("field \"") + key +
                               "\" must be a non-negative integer");
  *out = static_cast<std::uint64_t>(v->number);
  return {};
}

FieldError require_string_array(Fields& f, const char* key,
                                std::vector<std::string>* out) {
  const Value* v = f.get(key);
  if (!v) return FieldError::invalid(std::string("missing field \"") + key +
                                     "\"");
  if (v->kind != Value::Kind::Array)
    return FieldError::invalid(std::string("field \"") + key +
                               "\" must be an array of strings");
  for (const Value& item : v->items) {
    if (item.kind != Value::Kind::String)
      return FieldError::invalid(std::string("field \"") + key +
                                 "\" must be an array of strings");
    out->push_back(item.string);
  }
  return {};
}

FieldError decode_problem(Fields& f, engine::Problem* out) {
  std::string name;
  if (FieldError e = require_string(f, "problem", &name); !e.ok()) return e;
  const auto p = parse_problem(name);
  if (!p)
    return FieldError::invalid("unknown problem '" + name +
                               "' (expected cdpf|dgc|cgd|cedpf|edgc|cged)");
  *out = *p;
  return {};
}

FieldError decode_spec(Fields& f, SolveSpec* out) {
  if (FieldError e = decode_problem(f, &out->problem); !e.ok()) return e;
  if (FieldError e = optional_number(f, "bound", &out->bound,
                                     &out->has_bound);
      !e.ok())
    return e;
  if (out->has_bound && !std::isfinite(out->bound))
    return FieldError::invalid("bad bound (must be finite)");
  if (FieldError e = optional_string(f, "engine", &out->engine); !e.ok())
    return e;
  return require_string(f, "model", &out->model);
}

FieldError decode_operation(const std::string& op, Fields& f,
                            Operation* out) {
  if (op == "solve") {
    SolveRequest r;
    if (FieldError e = decode_spec(f, &r.spec); !e.ok()) return e;
    *out = std::move(r);
    return {};
  }
  if (op == "batch") {
    BatchRequest r;
    double threads = 0.0;
    bool has_threads = false;
    if (FieldError e = optional_number(f, "threads", &threads, &has_threads);
        !e.ok())
      return e;
    if (has_threads) {
      if (threads < 0.0 || std::floor(threads) != threads ||
          threads > 65536.0)
        return FieldError::invalid(
            "field \"threads\" must be a small non-negative integer");
      r.threads = static_cast<std::size_t>(threads);
    }
    const Value* items = f.get("items");
    if (!items) return FieldError::invalid("missing field \"items\"");
    if (items->kind != Value::Kind::Array)
      return FieldError::invalid("field \"items\" must be an array");
    for (std::size_t i = 0; i < items->items.size(); ++i) {
      const Value& item = items->items[i];
      if (item.kind != Value::Kind::Object)
        return FieldError::invalid("batch item " + std::to_string(i) +
                                   " must be an object");
      Fields g(item);
      SolveSpec spec;
      if (FieldError e = decode_spec(g, &spec); !e.ok())
        return FieldError::invalid("batch item " + std::to_string(i) + ": " +
                                   e.message);
      // Items reuse the spec field set, but have no envelope of their
      // own — leftover() must not excuse v/id/op here.
      if (item.find("v") || item.find("id") || item.find("op") ||
          !g.leftover().empty())
        return FieldError::invalid("batch item " + std::to_string(i) +
                                   ": unknown field");
      r.items.push_back(std::move(spec));
    }
    *out = std::move(r);
    return {};
  }
  if (op == "open") {
    SessionOpenRequest r;
    if (FieldError e = decode_spec(f, &r.spec); !e.ok()) return e;
    *out = std::move(r);
    return {};
  }
  if (op == "edit") {
    SessionEditRequest r;
    if (FieldError e = require_uint(f, "session", &r.session); !e.ok())
      return e;
    std::string edit;
    if (FieldError e = require_string(f, "edit", &edit); !e.ok()) return e;
    const auto eop = parse_edit_op(edit);
    if (!eop)
      return FieldError::invalid(
          "unknown edit op '" + edit +
          "' (expected set-cost, set-prob, set-damage, toggle-defense, or "
          "replace-subtree)");
    r.op = *eop;
    if (FieldError e = require_string(f, "target", &r.target); !e.ok())
      return e;
    const bool needs_value = r.op == EditOp::SetCost ||
                             r.op == EditOp::SetProb ||
                             r.op == EditOp::SetDamage;
    bool has_value = false;
    if (FieldError e = optional_number(f, "value", &r.value, &has_value);
        !e.ok())
      return e;
    if (needs_value && (!has_value || !std::isfinite(r.value)))
      return FieldError::invalid("edit " + edit +
                                 " needs a finite \"value\"");
    if (!needs_value && has_value)
      return FieldError::invalid("edit " + edit + " takes no \"value\"");
    std::string model;
    bool has_model = false;
    if (const Value* v = f.get("model")) {
      if (v->kind != Value::Kind::String)
        return FieldError::invalid("field \"model\" must be a string");
      model = v->string;
      has_model = true;
    }
    if (r.op == EditOp::ReplaceSubtree && !has_model)
      return FieldError::invalid("edit replace-subtree needs a \"model\"");
    if (r.op != EditOp::ReplaceSubtree && has_model)
      return FieldError::invalid("edit " + edit + " takes no \"model\"");
    r.model = std::move(model);
    *out = std::move(r);
    return {};
  }
  if (op == "resolve") {
    SessionResolveRequest r;
    if (FieldError e = require_uint(f, "session", &r.session); !e.ok())
      return e;
    *out = r;
    return {};
  }
  if (op == "close") {
    SessionCloseRequest r;
    if (FieldError e = require_uint(f, "session", &r.session); !e.ok())
      return e;
    *out = r;
    return {};
  }
  if (op == "sweep") {
    AnalyzeSweepRequest r;
    if (FieldError e = decode_problem(f, &r.problem); !e.ok()) return e;
    if (FieldError e = require_string_array(f, "axes", &r.axes); !e.ok())
      return e;
    if (FieldError e = optional_number(f, "bound", &r.bound, &r.has_bound);
        !e.ok())
      return e;
    if (r.has_bound && !std::isfinite(r.bound))
      return FieldError::invalid("bad bound (must be finite)");
    if (FieldError e = optional_string(f, "engine", &r.engine); !e.ok())
      return e;
    if (FieldError e = require_string(f, "model", &r.model); !e.ok())
      return e;
    *out = std::move(r);
    return {};
  }
  if (op == "sensitivity") {
    AnalyzeSensitivityRequest r;
    if (FieldError e = decode_problem(f, &r.problem); !e.ok()) return e;
    if (FieldError e = optional_number(f, "step", &r.step, &r.has_step);
        !e.ok())
      return e;
    if (r.has_step && !(std::isfinite(r.step) && r.step > 0.0))
      return FieldError::invalid("bad step (must be > 0)");
    if (FieldError e = optional_string(f, "engine", &r.engine); !e.ok())
      return e;
    if (FieldError e = require_string(f, "model", &r.model); !e.ok())
      return e;
    *out = std::move(r);
    return {};
  }
  if (op == "portfolio") {
    AnalyzePortfolioRequest r;
    if (FieldError e = decode_problem(f, &r.problem); !e.ok()) return e;
    if (FieldError e = require_string_array(f, "defenses", &r.defenses);
        !e.ok())
      return e;
    if (FieldError e = optional_number(f, "budget", &r.budget,
                                       &r.has_budget);
        !e.ok())
      return e;
    if (r.has_budget && !(std::isfinite(r.budget) && r.budget >= 0.0))
      return FieldError::invalid("bad budget (must be >= 0)");
    if (FieldError e = optional_number(f, "bound", &r.bound, &r.has_bound);
        !e.ok())
      return e;
    if (r.has_bound && !std::isfinite(r.bound))
      return FieldError::invalid("bad bound (must be finite)");
    if (FieldError e = optional_string(f, "engine", &r.engine); !e.ok())
      return e;
    if (FieldError e = require_string(f, "model", &r.model); !e.ok())
      return e;
    *out = std::move(r);
    return {};
  }
  if (op == "stats") {
    *out = StatsRequest{};
    return {};
  }
  if (op == "metrics") {
    *out = MetricsRequest{};
    return {};
  }
  if (op == "quit") {
    *out = ShutdownRequest{};
    return {};
  }
  if (op == "snapshot-save") {
    SnapshotSaveRequest r;
    if (FieldError e = require_string(f, "path", &r.path); !e.ok()) return e;
    *out = std::move(r);
    return {};
  }
  if (op == "snapshot-load") {
    SnapshotLoadRequest r;
    if (FieldError e = require_string(f, "path", &r.path); !e.ok()) return e;
    *out = std::move(r);
    return {};
  }
  return {ErrorCode::UnknownOperation,
          "unknown op '" + op +
              "' (expected solve, batch, open, edit, resolve, close, sweep, "
              "sensitivity, portfolio, stats, metrics, snapshot-save, "
              "snapshot-load, or quit)"};
}

// ---------------------------------------------------------------------------
// Response encoding.
// ---------------------------------------------------------------------------

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

/// Both cache Stats types share the same counter fields.
template <typename Stats>
std::string counter_obj(const Stats& c) {
  Obj o;
  o.uint("hits", c.hits);
  o.uint("misses", c.misses);
  o.uint("insertions", c.insertions);
  o.uint("evictions", c.evictions);
  o.uint("collisions", c.collisions);
  o.uint("entries", c.entries);
  o.uint("bytes", c.bytes);
  return o.close();
}

std::string counter_obj(const PersistCounters& c) {
  Obj o;
  o.uint("saves", c.saves);
  o.uint("loads", c.loads);
  o.uint("save_errors", c.save_errors);
  o.uint("load_errors", c.load_errors);
  o.uint("snapshot_bytes", c.snapshot_bytes);
  return o.close();
}

std::string counter_obj(const DispatchCounters& c) {
  Obj o;
  o.uint("requests", c.requests);
  o.uint("solves", c.solves);
  o.uint("batches", c.batches);
  o.uint("session_opens", c.session_opens);
  o.uint("session_edits", c.session_edits);
  o.uint("session_resolves", c.session_resolves);
  o.uint("session_closes", c.session_closes);
  o.uint("analyses", c.analyses);
  o.uint("errors", c.errors);
  return o.close();
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

struct PayloadEncoder {
  Obj& o;
  bool with_timing = false;

  void operator()(const std::monostate&) {}
  void operator()(const SolvePayload& p) { encode_solve_fields(&o, p); }
  void operator()(const BatchPayload& p) {
    o.str("kind", "batch");
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
    o.raw("items", items);
  }
  void operator()(const SessionOpenedPayload& p) {
    o.str("kind", "session");
    o.uint("session", p.session);
  }
  void operator()(const EditAppliedPayload&) { o.str("kind", "edited"); }
  void operator()(const SessionClosedPayload&) { o.str("kind", "closed"); }
  void operator()(const AnalysisPayload& p) {
    o.str("kind", "analysis");
    o.str("analysis", p.kind);
    o.raw("rows", string_array(table_rows(p.table)));
  }
  void operator()(const StatsPayload& p) {
    o.str("kind", "stats");
    o.raw("cache", counter_obj(p.cache));
    o.raw("subtree", counter_obj(p.subtree));
    o.uint("sessions", p.sessions);
    o.raw("api", counter_obj(p.api));
    o.raw("persist", counter_obj(p.persist));
    // Wall-clock data, gated like the envelope's micros field: stats
    // responses stay byte-deterministic when timing echo is off.
    if (with_timing) {
      Obj lat;
      lat.uint("count", p.latency.count);
      lat.uint("sum_micros", p.latency.sum_micros);
      lat.num("p50", p.latency.p50);
      lat.num("p95", p.latency.p95);
      lat.num("p99", p.latency.p99);
      o.raw("latency", lat.close());
    }
  }
  void operator()(const MetricsPayload& p) {
    o.str("kind", "metrics");
    // `json` is already a canonical JSON object (Registry::to_json), so
    // it embeds verbatim; the Prometheus text travels as a string.
    o.raw("metrics", p.json);
    o.str("text", p.text);
  }
  void operator()(const ShutdownPayload& p) {
    o.str("kind", "shutdown");
    o.uint("handled", p.handled);
  }
  void operator()(const SnapshotPayload& p) {
    o.str("kind", "snapshot");
    o.str("action", p.action);
    o.str("path", p.path);
    o.uint("result_entries", p.result_entries);
    o.uint("subtree_entries", p.subtree_entries);
    o.uint("file_bytes", p.file_bytes);
  }
};

// ---------------------------------------------------------------------------
// Response decoding.
// ---------------------------------------------------------------------------

bool read_uint(const Value& obj, const char* key, std::uint64_t* out) {
  const Value* v = obj.find(key);
  // Same 2^53 cap as require_uint: a larger double is not exactly
  // representable and the cast would be undefined behavior.
  if (!v || v->kind != Value::Kind::Number || v->number < 0.0 ||
      std::floor(v->number) != v->number ||
      v->number > 9.007199254740992e15)
    return false;
  *out = static_cast<std::uint64_t>(v->number);
  return true;
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

template <typename Stats>
void decode_counter_stats(const Value& obj, const char* key, Stats* out) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::Kind::Object) return;
  read_uint(*v, "hits", &out->hits);
  read_uint(*v, "misses", &out->misses);
  read_uint(*v, "insertions", &out->insertions);
  read_uint(*v, "evictions", &out->evictions);
  read_uint(*v, "collisions", &out->collisions);
  std::uint64_t n = 0;
  if (read_uint(*v, "entries", &n)) out->entries = n;
  if (read_uint(*v, "bytes", &n)) out->bytes = n;
}

void decode_api_counters(const Value& obj, DispatchCounters* out) {
  const Value* v = obj.find("api");
  if (!v || v->kind != Value::Kind::Object) return;
  read_uint(*v, "requests", &out->requests);
  read_uint(*v, "solves", &out->solves);
  read_uint(*v, "batches", &out->batches);
  read_uint(*v, "session_opens", &out->session_opens);
  read_uint(*v, "session_edits", &out->session_edits);
  read_uint(*v, "session_resolves", &out->session_resolves);
  read_uint(*v, "session_closes", &out->session_closes);
  read_uint(*v, "analyses", &out->analyses);
  read_uint(*v, "errors", &out->errors);
}

}  // namespace

std::string encode_request(const Request& request) {
  Obj o;
  o.uint("v", static_cast<std::uint64_t>(kVersion));
  if (!request.id.empty()) o.str("id", request.id);
  o.str("op", op_name(request.op));
  if (request.trace) o.boolean("trace", true);
  RequestEncoder enc{o};
  std::visit(enc, request.op);
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

  Fields fields(doc);
  // Envelope-level opt-in, legal on every op (consumed before the
  // leftover check so it never reads as an unknown field).
  if (const Value* tr = fields.get("trace")) {
    if (tr->kind != Value::Kind::Bool)
      return fail(ErrorCode::MalformedRequest,
                  "field \"trace\" must be a boolean");
    out.value.trace = tr->boolean;
  }
  FieldError err = decode_operation(op->string, fields, &out.value.op);
  if (!err.ok()) return fail(err.code, std::move(err.message));
  if (const std::string stray = fields.leftover(); !stray.empty())
    return fail(ErrorCode::InvalidArgument,
                "unknown field \"" + stray + "\" for op '" + op->string +
                    "'");
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
    PayloadEncoder enc{o, with_micros};
    std::visit(enc, response.payload);
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
        if (fv.kind != Value::Kind::Number || fv.number < 0.0 ||
            std::floor(fv.number) != fv.number ||
            fv.number > 9.007199254740992e15)
          return fail("bad trace fact");
        tp.facts.emplace_back(name, static_cast<std::uint64_t>(fv.number));
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
  std::string err;
  if (kind == "front" || kind == "attack") {
    SolvePayload p;
    if (!decode_solve_payload(doc, kind, &p, &err)) return fail(err);
    out.value.payload = std::move(p);
  } else if (kind == "batch") {
    BatchPayload p;
    const Value* items = doc.find("items");
    if (!items || items->kind != Value::Kind::Array)
      return fail("missing \"items\"");
    for (const Value& item : items->items) {
      if (item.kind != Value::Kind::Object) return fail("bad batch item");
      BatchPayload::Item bi;
      std::string icode;
      if (!read_string(item, "code", &icode)) return fail("bad batch item");
      const auto iec = parse_error_code(icode);
      if (!iec) return fail("bad batch item code");
      bi.code = *iec;
      if (bi.code == ErrorCode::Ok) {
        std::string ikind;
        if (!read_string(item, "kind", &ikind) ||
            !decode_solve_payload(item, ikind, &bi.solve, &err))
          return fail("bad batch item: " + err);
      } else {
        read_string(item, "error", &bi.error);
      }
      p.items.push_back(std::move(bi));
    }
    out.value.payload = std::move(p);
  } else if (kind == "session") {
    SessionOpenedPayload p;
    if (!read_uint(doc, "session", &p.session))
      return fail("missing \"session\"");
    out.value.payload = p;
  } else if (kind == "edited") {
    out.value.payload = EditAppliedPayload{};
  } else if (kind == "closed") {
    out.value.payload = SessionClosedPayload{};
  } else if (kind == "analysis") {
    AnalysisPayload p;
    if (!read_string(doc, "analysis", &p.kind))
      return fail("missing \"analysis\"");
    const Value* rows = doc.find("rows");
    if (!rows || rows->kind != Value::Kind::Array)
      return fail("missing \"rows\"");
    for (const Value& row : rows->items) {
      if (row.kind != Value::Kind::String) return fail("bad row");
      p.table += row.string;
      p.table += '\n';
    }
    out.value.payload = std::move(p);
  } else if (kind == "stats") {
    StatsPayload p;
    decode_counter_stats(doc, "cache", &p.cache);
    decode_counter_stats(doc, "subtree", &p.subtree);
    std::uint64_t sessions = 0;
    if (read_uint(doc, "sessions", &sessions)) p.sessions = sessions;
    decode_api_counters(doc, &p.api);
    if (const Value* per = doc.find("persist");
        per && per->kind == Value::Kind::Object) {
      read_uint(*per, "saves", &p.persist.saves);
      read_uint(*per, "loads", &p.persist.loads);
      read_uint(*per, "save_errors", &p.persist.save_errors);
      read_uint(*per, "load_errors", &p.persist.load_errors);
      read_uint(*per, "snapshot_bytes", &p.persist.snapshot_bytes);
    }
    if (const Value* lat = doc.find("latency");
        lat && lat->kind == Value::Kind::Object) {
      read_uint(*lat, "count", &p.latency.count);
      read_uint(*lat, "sum_micros", &p.latency.sum_micros);
      read_number(*lat, "p50", &p.latency.p50);
      read_number(*lat, "p95", &p.latency.p95);
      read_number(*lat, "p99", &p.latency.p99);
    }
    out.value.payload = std::move(p);
  } else if (kind == "metrics") {
    MetricsPayload p;
    const Value* m = doc.find("metrics");
    if (!m || m->kind != Value::Kind::Object)
      return fail("missing \"metrics\"");
    // Re-dump the embedded registry object; both sides use the same
    // canonical number rendering, so this is byte-stable.
    p.json = json::dump(*m);
    if (!read_string(doc, "text", &p.text)) return fail("missing \"text\"");
    out.value.payload = std::move(p);
  } else if (kind == "shutdown") {
    ShutdownPayload p;
    read_uint(doc, "handled", &p.handled);
    out.value.payload = p;
  } else if (kind == "snapshot") {
    SnapshotPayload p;
    if (!read_string(doc, "action", &p.action))
      return fail("missing \"action\"");
    read_string(doc, "path", &p.path);
    read_uint(doc, "result_entries", &p.result_entries);
    read_uint(doc, "subtree_entries", &p.subtree_entries);
    read_uint(doc, "file_bytes", &p.file_bytes);
    out.value.payload = std::move(p);
  } else {
    return fail("unknown kind '" + kind + "'");
  }
  return out;
}

}  // namespace atcd::api
