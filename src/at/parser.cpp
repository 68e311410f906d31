#include "at/parser.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

namespace atcd {
namespace {

bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

struct Cursor {
  const std::string& s;
  std::size_t pos = 0;
  int line;

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  }
  bool eof() {
    skip_ws();
    return pos >= s.size();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError("line " + std::to_string(line) + ": " + msg);
  }
  std::string name() {
    skip_ws();
    std::size_t start = pos;
    while (pos < s.size() && is_name_char(s[pos])) ++pos;
    if (pos == start) fail("expected a name");
    return s.substr(start, pos - start);
  }
  double number() {
    skip_ws();
    std::size_t consumed = 0;
    double v = 0;
    try {
      v = std::stod(s.substr(pos), &consumed);
    } catch (const std::exception&) {
      fail("expected a number");
    }
    pos += consumed;
    return v;
  }
  bool accept(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!accept(c)) fail(std::string("expected '") + c + "'");
  }
};

struct Attrs {
  double cost = 0, damage = 0, prob = 1;
};

Attrs parse_attrs(Cursor& cur) {
  Attrs a;
  while (!cur.eof()) {
    const std::string key = cur.name();
    cur.expect('=');
    const double v = cur.number();
    if (key == "cost")
      a.cost = v;
    else if (key == "damage")
      a.damage = v;
    else if (key == "prob")
      a.prob = v;
    else
      cur.fail("unknown attribute '" + key + "'");
  }
  return a;
}

}  // namespace

ParsedModel parse_model(const std::string& text) {
  ParsedModel m;
  std::string root_name;
  bool have_root = false;

  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    // Strip comment.
    if (const auto h = raw.find('#'); h != std::string::npos) raw.erase(h);
    Cursor cur{raw, 0, lineno};
    if (cur.eof()) continue;
    const std::string kw = cur.name();

    if (kw == "root") {
      root_name = cur.name();
      have_root = true;
      if (!cur.eof()) cur.fail("trailing input after root statement");
      continue;
    }

    if (kw == "bas") {
      const std::string name = cur.name();
      const Attrs a = parse_attrs(cur);
      m.tree.add_bas(name);
      m.cost.push_back(a.cost);
      if (a.prob < 0.0 || a.prob > 1.0)
        cur.fail("prob must lie in [0,1]");
      m.prob.push_back(a.prob);
      m.damage.push_back(a.damage);  // NodeIds are dense, in creation order
      continue;
    }

    if (kw == "or" || kw == "and") {
      const std::string name = cur.name();
      cur.expect('=');
      std::vector<NodeId> children;
      do {
        const std::string cname = cur.name();
        const auto child = m.tree.find(cname);
        if (!child) cur.fail("child '" + cname + "' not defined before use");
        children.push_back(*child);
      } while (cur.accept(','));
      // Remaining tokens are attributes.
      const Attrs a = parse_attrs(cur);
      m.tree.add_gate(kw == "or" ? NodeType::OR : NodeType::AND, name,
                      std::move(children));
      m.damage.push_back(a.damage);
      continue;
    }

    cur.fail("unknown statement '" + kw + "'");
  }

  if (have_root) {
    const auto root = m.tree.find(root_name);
    if (!root) throw ParseError("root '" + root_name + "' was never defined");
    m.tree.set_root(*root);
  }
  m.tree.finalize();
  return m;
}

ParsedModel parse_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open model file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_model(buf.str());
}

std::string serialize_model(const AttackTree& t,
                            const std::vector<double>& cost,
                            const std::vector<double>& damage,
                            const std::vector<double>* prob) {
  std::ostringstream out;
  out.precision(17);
  for (NodeId v : t.topological_order()) {
    const auto& n = t.node(v);
    if (n.type == NodeType::BAS) {
      out << "bas " << n.name;
      if (cost[n.bas_index] != 0) out << " cost=" << cost[n.bas_index];
      if (damage[v] != 0) out << " damage=" << damage[v];
      if (prob && (*prob)[n.bas_index] != 1.0)
        out << " prob=" << (*prob)[n.bas_index];
      out << '\n';
    } else {
      out << (n.type == NodeType::OR ? "or " : "and ") << n.name << " =";
      for (std::size_t i = 0; i < n.children.size(); ++i)
        out << (i ? ", " : " ") << t.name(n.children[i]);
      if (damage[v] != 0) out << " damage=" << damage[v];
      out << '\n';
    }
  }
  out << "root " << t.name(t.root()) << '\n';
  return out.str();
}

}  // namespace atcd
