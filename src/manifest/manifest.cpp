#include "manifest/manifest.hpp"

#include <charconv>
#include <sstream>

namespace aft::manifest {
namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::string subject_to_text(core::Subject s) { return core::to_string(s); }

core::Subject subject_from_text(std::size_t line, const std::string& text) {
  if (text == "hardware") return core::Subject::kHardware;
  if (text == "third-party-software") return core::Subject::kThirdPartySoftware;
  if (text == "execution-environment") return core::Subject::kExecutionEnvironment;
  if (text == "physical-environment") return core::Subject::kPhysicalEnvironment;
  throw ManifestError(line, "unknown subject '" + text + "'");
}

std::string binding_to_text(core::BindingTime t) { return core::to_string(t); }

core::BindingTime binding_from_text(std::size_t line, const std::string& text) {
  if (text == "design-time") return core::BindingTime::kDesign;
  if (text == "compile-time") return core::BindingTime::kCompile;
  if (text == "deployment-time") return core::BindingTime::kDeploy;
  if (text == "run-time") return core::BindingTime::kRun;
  throw ManifestError(line, "unknown binding time '" + text + "'");
}

/// Clause bounds are written so that parse_value() reads back the same
/// type and value: a double in its shortest round-trip form, kept visibly
/// non-integral ("10.0", "1e+20", "inf"); a string always quoted, so "3" or
/// "true" cannot come back as a number or a bool.
std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out + '"';
}

std::string format_value(const core::ContextValue& v) {
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, *d);
    std::string out(buf, res.ptr);
    if (out.find_first_of(".ein") == std::string::npos) out += ".0";
    return out;
  }
  if (const auto* text = std::get_if<std::string>(&v)) return quote(*text);
  return contract::to_string(v);
}

std::string unquote(std::size_t line, const std::string& text) {
  if (text.size() < 2 || text.back() != '"') {
    throw ManifestError(line, "unterminated string " + text);
  }
  std::string out;
  for (std::size_t i = 1; i + 1 < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') throw ManifestError(line, "unescaped quote in " + text);
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i + 1 >= text.size()) {
      throw ManifestError(line, "dangling escape in " + text);
    }
    switch (text[i]) {
      case '\\': out += '\\'; break;
      case '"': out += '"'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: throw ManifestError(line, "unknown escape in " + text);
    }
  }
  return out;
}

/// A text field (name, statement, node name, ...) is written raw when the
/// raw form reads back unchanged — the common case, so hand-written and
/// existing documents look as before — and quoted otherwise: a line break,
/// leading or trailing blanks (parse trims them), a leading quote (parse
/// would unquote it), or, for a DAG node name, an "->" (edges split there).
std::string format_text(const std::string& text, bool node = false) {
  if (text.empty()) return text;
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  const bool raw = text.find_first_of("\n\r") == std::string::npos &&
                   !blank(text.front()) && !blank(text.back()) &&
                   text.front() != '"' &&
                   !(node && text.find("->") != std::string::npos);
  return raw ? text : quote(text);
}

/// Reads back a format_text() field.
std::string parse_text(std::size_t line, const std::string& text) {
  return !text.empty() && text.front() == '"' ? unquote(line, text) : text;
}

/// Splits "from -> to" at the arrow after `from`, which may be quoted (and
/// then may itself contain "->").
std::pair<std::string, std::string> parse_edge(std::size_t line,
                                               const std::string& value) {
  std::size_t from_end = 0;
  if (!value.empty() && value.front() == '"') {
    from_end = 1;
    while (from_end < value.size() && value[from_end] != '"') {
      from_end += value[from_end] == '\\' ? 2u : 1u;
    }
  }
  const auto arrow = value.find("->", from_end);
  if (arrow == std::string::npos) {
    throw ManifestError(line, "edge must be 'from -> to'");
  }
  return {parse_text(line, trim(value.substr(0, arrow))),
          parse_text(line, trim(value.substr(arrow + 2)))};
}

/// Typed value parse: a quoted string, then bool, integer and double; any
/// other unquoted text (a hand-written manifest) is a raw string.
core::ContextValue parse_value(std::size_t line, const std::string& text) {
  if (!text.empty() && text.front() == '"') return unquote(line, text);
  if (text == "true") return true;
  if (text == "false") return false;
  const char* const end = text.data() + text.size();
  std::int64_t i = 0;
  if (const auto r = std::from_chars(text.data(), end, i);
      r.ec == std::errc{} && r.ptr == end) {
    return i;
  }
  double d = 0.0;
  if (const auto r = std::from_chars(text.data(), end, d);
      r.ec == std::errc{} && r.ptr == end) {
    return d;
  }
  return text;
}

}  // namespace

ClauseAssumption::ClauseAssumption(const AssumptionRecord& record)
    : AssumptionBase(record.id, record.statement, record.subject,
                     core::Provenance{.origin = record.origin,
                                      .rationale = record.rationale,
                                      .stated_at = record.stated_at}),
      clause_(record.expectation) {}

core::AssumptionBase::Outcome ClauseAssumption::evaluate(
    const core::Context& ctx) const {
  const std::optional<bool> verdict = clause_.evaluate(ctx);
  if (!verdict.has_value()) {
    return Outcome{core::AssumptionState::kUnverified, ""};
  }
  if (*verdict) return Outcome{core::AssumptionState::kHolds, ""};
  const auto it = ctx.facts().find(clause_.key);
  return Outcome{core::AssumptionState::kViolated,
                 clause_.key + " = " + contract::to_string(it->second) +
                     " (expected " + clause_.to_string() + ")"};
}

std::string Manifest::serialize() const {
  std::ostringstream out;
  out << "# aft deployment manifest\n";
  out << "[meta]\n";
  out << "name = " << format_text(name) << "\n";
  out << "version = " << format_text(version) << "\n";
  for (const AssumptionRecord& a : assumptions) {
    out << "\n[assumption]\n"
        << "id = " << format_text(a.id) << "\n"
        << "statement = " << format_text(a.statement) << "\n"
        << "subject = " << subject_to_text(a.subject) << "\n"
        << "origin = " << format_text(a.origin) << "\n"
        << "rationale = " << format_text(a.rationale) << "\n"
        << "stated_at = " << binding_to_text(a.stated_at) << "\n"
        << "expect_key = " << format_text(a.expectation.key) << "\n"
        << "expect_op = " << contract::to_string(a.expectation.op) << "\n"
        << "expect_value = " << format_value(a.expectation.bound) << "\n";
  }
  for (const arch::DagSnapshot& d : architectures) {
    out << "\n[architecture]\n"
        << "name = " << format_text(d.name) << "\n";
    for (const auto& node : d.nodes) {
      out << "node = " << format_text(node, /*node=*/true) << "\n";
    }
    for (const auto& [from, to] : d.edges) {
      out << "edge = " << format_text(from, /*node=*/true) << " -> "
          << format_text(to, /*node=*/true) << "\n";
    }
  }
  return out.str();
}

Manifest Manifest::parse(const std::string& text) {
  Manifest manifest;
  enum class Section { kNone, kMeta, kAssumption, kArchitecture };
  Section section = Section::kNone;
  AssumptionRecord current_assumption;
  arch::DagSnapshot current_arch;
  bool have_assumption = false, have_arch = false;

  auto flush = [&](std::size_t line) {
    if (have_assumption) {
      if (current_assumption.id.empty()) {
        throw ManifestError(line, "[assumption] section without id");
      }
      if (current_assumption.expectation.key.empty()) {
        throw ManifestError(line, "[assumption] '" + current_assumption.id +
                                      "' has no expect_key");
      }
      manifest.assumptions.push_back(current_assumption);
      current_assumption = AssumptionRecord{};
      have_assumption = false;
    }
    if (have_arch) {
      const std::string error = arch::ReflectiveDag::validate(current_arch);
      if (!error.empty()) {
        throw ManifestError(line, "[architecture] '" + current_arch.name +
                                      "': " + error);
      }
      manifest.architectures.push_back(current_arch);
      current_arch = arch::DagSnapshot{};
      have_arch = false;
    }
  };

  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;

    if (line.front() == '[') {
      flush(line_no);
      if (line == "[meta]") {
        section = Section::kMeta;
      } else if (line == "[assumption]") {
        section = Section::kAssumption;
        have_assumption = true;
      } else if (line == "[architecture]") {
        section = Section::kArchitecture;
        have_arch = true;
      } else {
        throw ManifestError(line_no, "unknown section " + line);
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ManifestError(line_no, "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));

    switch (section) {
      case Section::kNone:
        throw ManifestError(line_no, "key/value outside any section");
      case Section::kMeta:
        if (key == "name") manifest.name = parse_text(line_no, value);
        else if (key == "version") manifest.version = parse_text(line_no, value);
        else throw ManifestError(line_no, "unknown [meta] key '" + key + "'");
        break;
      case Section::kAssumption:
        if (key == "id") current_assumption.id = parse_text(line_no, value);
        else if (key == "statement")
          current_assumption.statement = parse_text(line_no, value);
        else if (key == "subject")
          current_assumption.subject = subject_from_text(line_no, value);
        else if (key == "origin")
          current_assumption.origin = parse_text(line_no, value);
        else if (key == "rationale")
          current_assumption.rationale = parse_text(line_no, value);
        else if (key == "stated_at")
          current_assumption.stated_at = binding_from_text(line_no, value);
        else if (key == "expect_key")
          current_assumption.expectation.key = parse_text(line_no, value);
        else if (key == "expect_op") {
          const auto op = contract::parse_op(value);
          if (!op.has_value()) throw ManifestError(line_no, "bad op '" + value + "'");
          current_assumption.expectation.op = *op;
        } else if (key == "expect_value") {
          current_assumption.expectation.bound = parse_value(line_no, value);
        } else {
          throw ManifestError(line_no, "unknown [assumption] key '" + key + "'");
        }
        break;
      case Section::kArchitecture:
        if (key == "name") current_arch.name = parse_text(line_no, value);
        else if (key == "node")
          current_arch.nodes.push_back(parse_text(line_no, value));
        else if (key == "edge") {
          current_arch.edges.push_back(parse_edge(line_no, value));
        } else {
          throw ManifestError(line_no, "unknown [architecture] key '" + key + "'");
        }
        break;
    }
  }
  flush(line_no + 1);
  return manifest;
}

void Manifest::populate(core::AssumptionRegistry& registry) const {
  for (const AssumptionRecord& record : assumptions) {
    registry.add(std::make_unique<ClauseAssumption>(record));
  }
}

std::vector<core::Clash> Manifest::requalify(const core::Context& ctx) const {
  core::AssumptionRegistry registry;
  populate(registry);
  return registry.verify_all(ctx);
}

std::vector<std::string> Manifest::audit_provenance() const {
  std::vector<std::string> flagged;
  for (const AssumptionRecord& record : assumptions) {
    if (record.origin.empty() || record.rationale.empty()) {
      flagged.push_back(record.id);
    }
  }
  return flagged;
}

}  // namespace aft::manifest
