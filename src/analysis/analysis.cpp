#include "analysis/analysis.hpp"

#include <charconv>
#include <cmath>
#include <limits>

namespace atcd::analysis {
namespace {

/// Splits \p s on \p sep; no escaping (node names cannot contain ':').
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i)
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  return out;
}

bool parse_num(const std::string& tok, double* value) {
  std::size_t consumed = 0;
  try {
    *value = std::stod(tok, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  return consumed == tok.size() && std::isfinite(*value);
}

std::optional<Attribute> parse_attribute(const std::string& name) {
  if (name == "cost") return Attribute::Cost;
  if (name == "prob") return Attribute::Prob;
  if (name == "damage") return Attribute::Damage;
  if (name == "defense") return Attribute::Defense;
  return std::nullopt;
}

}  // namespace

const char* to_string(Attribute a) {
  switch (a) {
    case Attribute::Cost:
      return "cost";
    case Attribute::Prob:
      return "prob";
    case Attribute::Damage:
      return "damage";
    case Attribute::Defense:
      return "defense";
  }
  return "?";
}

Axis Axis::linspace(Attribute attribute, std::string node, double lo,
                    double hi, std::size_t steps) {
  Axis axis;
  axis.attribute = attribute;
  axis.node = std::move(node);
  if (steps == 0) return axis;
  axis.values.reserve(steps);
  for (std::size_t i = 0; i < steps; ++i)
    axis.values.push_back(
        steps == 1 ? lo
                   : lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(steps - 1));
  return axis;
}

Axis Axis::toggle(std::string bas) {
  Axis axis;
  axis.attribute = Attribute::Defense;
  axis.node = std::move(bas);
  axis.values = {0.0, 1.0};
  return axis;
}

std::optional<Axis> parse_axis(const std::string& spec, std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<Axis> {
    if (error)
      *error = "bad axis '" + spec + "': " + why +
               " (expected <attr>:<node>:<lo>:<hi>:<steps> with <attr> in "
               "cost|prob|damage, or defense:<bas>)";
    return std::nullopt;
  };
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.empty() || parts[0].empty()) return fail("missing attribute");
  const auto attr = parse_attribute(parts[0]);
  if (!attr) return fail("unknown attribute '" + parts[0] + "'");
  if (*attr == Attribute::Defense) {
    if (parts.size() != 2 || parts[1].empty())
      return fail("defense axes take exactly one BAS name");
    return Axis::toggle(parts[1]);
  }
  if (parts.size() != 5) return fail("expected 5 ':'-separated fields");
  if (parts[1].empty()) return fail("missing node name");
  double lo = 0.0, hi = 0.0, steps = 0.0;
  if (!parse_num(parts[2], &lo) || !parse_num(parts[3], &hi))
    return fail("lo/hi must be finite numbers");
  if (!parse_num(parts[4], &steps) || steps < 1.0 ||
      steps != std::floor(steps) || steps > 1e6)
    return fail("steps must be a positive integer");
  return Axis::linspace(*attr, parts[1], lo, hi,
                        static_cast<std::size_t>(steps));
}

void append_num(std::string* out, double v) {
  // %.17g round-trips every double; prefer the shorter %.15g rendering
  // when it parses back exactly (it does for almost all model inputs),
  // so tables stay human-readable without sacrificing byte-stability.
  // to_chars with a precision is printf's %g in the "C" locale, whatever
  // the process locale.  A failed parse-back (out of range) leaves the
  // NaN, which compares unequal, so it too takes %.17g.
  char buf[32];
  auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                         15);
  double back = std::numeric_limits<double>::quiet_NaN();
  std::from_chars(buf, r.ptr, back);
  if (back != v)
    r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                      17);
  out->append(buf, r.ptr);
}

std::string format_num(double v) {
  std::string out;
  append_num(&out, v);
  return out;
}

std::optional<defense::Countermeasure> parse_countermeasure(
    const std::string& spec, std::string* error) {
  const auto fail =
      [&](const std::string& why) -> std::optional<defense::Countermeasure> {
    if (error)
      *error = "bad defense '" + spec + "': " + why +
               " (expected <name>:<cost>:<bas>[+<bas>...])";
    return std::nullopt;
  };
  const std::vector<std::string> parts = split(spec, ':');
  if (parts.size() != 3) return fail("expected 3 ':'-separated fields");
  if (parts[0].empty()) return fail("missing name");
  defense::Countermeasure cm;
  cm.name = parts[0];
  if (!parse_num(parts[1], &cm.cost) || cm.cost < 0.0)
    return fail("cost must be a finite number >= 0");
  for (const std::string& bas : split(parts[2], '+')) {
    if (bas.empty()) return fail("empty BAS name");
    cm.hardened_bas.push_back(bas);
  }
  return cm;
}

}  // namespace atcd::analysis
