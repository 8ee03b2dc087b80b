#include "common/obs/trace_report.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>

#include "common/stats.hpp"

namespace dh::obs {

namespace {

// Minimal parser for one JSONL trace line: a flat object of string or
// number values plus one optional nested object "f" of number values. A
// null value (the sink's non-finite number) is dropped; its line is kept.
// Returns nullopt on any syntax surprise (the caller counts it malformed).
struct ParsedLine {
  std::string cat;
  std::string name;
  double wall_ms = 0.0;
  bool has_wall = false;
  double sim_s = 0.0;
  bool has_sim = false;
  std::vector<std::pair<std::string, double>> fields;
};

class LineParser {
 public:
  explicit LineParser(const std::string& s) : s_(s) {}

  std::optional<ParsedLine> parse() {
    skip_ws();
    if (!consume('{')) return std::nullopt;
    ParsedLine out;
    bool first = true;
    for (;;) {
      skip_ws();
      if (consume('}')) break;
      if (!first && !consume(',')) return std::nullopt;
      skip_ws();
      if (first && consume('}')) break;
      first = false;
      std::string key;
      if (!parse_string(key)) return std::nullopt;
      skip_ws();
      if (!consume(':')) return std::nullopt;
      skip_ws();
      if (key == "f") {
        if (!parse_field_object(out.fields)) return std::nullopt;
      } else if (peek() == '"') {
        std::string v;
        if (!parse_string(v)) return std::nullopt;
        if (key == "cat") out.cat = std::move(v);
        else if (key == "name") out.name = std::move(v);
      } else if (!parse_null()) {
        double v = 0.0;
        if (!parse_number(v)) return std::nullopt;
        if (key == "t_wall_ms") {
          out.wall_ms = v;
          out.has_wall = true;
        } else if (key == "t_sim_s") {
          out.sim_s = v;
          out.has_sim = true;
        }
      }
    }
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;
    if (out.cat.empty() || out.name.empty() || !out.has_wall) {
      return std::nullopt;
    }
    return out;
  }

 private:
  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        out += s_[pos_++];
      } else {
        out += c;
      }
    }
    return false;
  }
  bool parse_null() {
    if (s_.compare(pos_, 4, "null") != 0) return false;
    pos_ += 4;
    return true;
  }
  bool parse_number(double& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    // The whole token must be one finite number: "1e" or "1-2" is not 1,
    // and "1e999" is out of range.
    const char* last = s_.data() + pos_;
    const auto [end, ec] = std::from_chars(s_.data() + start, last, out);
    return ec == std::errc{} && end == last;
  }
  bool parse_field_object(
      std::vector<std::pair<std::string, double>>& out) {
    if (!consume('{')) return false;
    bool first = true;
    for (;;) {
      skip_ws();
      if (consume('}')) return true;
      if (!first && !consume(',')) return false;
      skip_ws();
      if (first && consume('}')) return true;
      first = false;
      std::string key;
      double v = 0.0;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (parse_null()) continue;
      if (!parse_number(v)) return false;
      out.emplace_back(std::move(key), v);
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TraceFieldSummary summarize(std::vector<double>& values) {
  TraceFieldSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.p50 = stats::percentile_sorted(values, 0.50);
  s.p95 = stats::percentile_sorted(values, 0.95);
  return s;
}

}  // namespace

TraceReport analyze_trace(std::istream& in) {
  TraceReport report;
  std::map<std::string, std::map<std::string, std::vector<double>>>
      field_values;  // group key -> field -> values
  double first_wall = 0.0;
  double prev_wall = 0.0;
  std::string prev_cat;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = LineParser(line).parse();
    if (!parsed) {
      ++report.malformed_lines;
      continue;
    }
    if (report.total_events == 0) first_wall = parsed->wall_ms;
    ++report.total_events;
    ++report.category_counts[parsed->cat];
    const std::string key = parsed->cat + "/" + parsed->name;
    TraceEventGroup& group = report.groups[key];
    if (group.count == 0) {
      group.category = parsed->cat;
      group.name = parsed->name;
    }
    ++group.count;
    auto& values = field_values[key];
    if (parsed->has_sim) values["t_sim_s"].push_back(parsed->sim_s);
    double recovery_cores = 0.0;
    double em_recovery = 0.0;
    for (const auto& [k, v] : parsed->fields) {
      values[k].push_back(v);
      if (k == "recovery_cores") recovery_cores = v;
      if (k == "em_recovery") em_recovery = v;
    }
    if (parsed->cat == "sim" && parsed->name == "quantum") {
      ++report.sim_quanta;
      if (recovery_cores > 0.0 || em_recovery != 0.0) {
        ++report.sim_recovery_quanta;
      }
      constexpr std::string_view kViolation = "violation.";
      for (const auto& [k, v] : parsed->fields) {
        if (k.starts_with(kViolation)) {
          std::uint64_t& quanta =
              report.sim_invariant_violations[k.substr(kViolation.size())];
          if (v != 0.0) ++quanta;
        }
      }
    }
    // Phase accounting: charge the gap since the previous event to the
    // previous event's category.
    if (!prev_cat.empty()) {
      report.category_wall_ms[prev_cat] +=
          std::max(0.0, parsed->wall_ms - prev_wall);
    }
    prev_cat = parsed->cat;
    prev_wall = parsed->wall_ms;
  }
  if (report.total_events > 0) {
    report.wall_span_ms = prev_wall - first_wall;
  }
  for (auto& [key, fields] : field_values) {
    for (auto& [fkey, vals] : fields) {
      report.groups[key].fields[fkey] = summarize(vals);
    }
  }
  return report;
}

void print_trace_report(std::ostream& os, const TraceReport& report) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "trace: %zu events, %.3f ms wall span, %zu malformed "
                "line(s)\n",
                report.total_events, report.wall_span_ms,
                report.malformed_lines);
  os << buf;

  os << "\nevents per category:\n";
  for (const auto& [cat, count] : report.category_counts) {
    const auto it = report.category_wall_ms.find(cat);
    const double ms = it == report.category_wall_ms.end() ? 0.0 : it->second;
    const double pct = report.wall_span_ms > 0.0
                           ? 100.0 * ms / report.wall_span_ms
                           : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "  %-16s %8zu events  %10.3f ms attributed (%5.1f%%)\n",
                  cat.c_str(), count, ms, pct);
    os << buf;
  }

  os << "\nevent groups (field p50/p95/max):\n";
  for (const auto& [key, group] : report.groups) {
    std::snprintf(buf, sizeof(buf), "  %-28s x%zu\n", key.c_str(),
                  group.count);
    os << buf;
    for (const auto& [fkey, s] : group.fields) {
      std::snprintf(buf, sizeof(buf),
                    "    %-22s p50 %-12.6g p95 %-12.6g max %-12.6g\n",
                    fkey.c_str(), s.p50, s.p95, s.max);
      os << buf;
    }
  }

  if (report.sim_quanta > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\nscheduler: %zu quanta recorded, recovery_quanta = "
                  "%llu (quanta with BTI active recovery or EM recovery "
                  "mode)\n",
                  report.sim_quanta,
                  static_cast<unsigned long long>(
                      report.sim_recovery_quanta));
    os << buf;
  }
  if (!report.sim_invariant_violations.empty()) {
    os << "\ninvariant violations (quanta):\n";
    for (const auto& [name, quanta] : report.sim_invariant_violations) {
      std::snprintf(buf, sizeof(buf), "  %-22s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(quanta));
      os << buf;
    }
  }
}

}  // namespace dh::obs
