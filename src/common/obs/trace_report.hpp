// Analysis of a recorded JSONL trace (the JsonlTraceSink schema): event
// counts per category/name, per-field distribution summaries (p50/p95/max),
// a per-phase wall-time breakdown, and derived scheduler facts such as the
// recovery-quanta count — the library behind tools/trace_report, factored
// out so tests can check a recorded sim trace reproduces the live
// registry counters exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace dh::obs {

struct TraceFieldSummary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

struct TraceEventGroup {
  std::string category;
  std::string name;
  std::size_t count = 0;
  /// Field key -> distribution over all events in the group (exact
  /// order statistics, not bucketed — a recorded trace is finite).
  std::map<std::string, TraceFieldSummary> fields;
};

struct TraceReport {
  std::size_t total_events = 0;
  std::size_t malformed_lines = 0;
  double wall_span_ms = 0.0;  // first event -> last event
  /// category -> event count.
  std::map<std::string, std::size_t> category_counts;
  /// "category/name" -> group.
  std::map<std::string, TraceEventGroup> groups;
  /// category -> wall-time attributed to it: the gap from each event to
  /// the next is charged to the earlier event's category (phase model:
  /// an event marks the start of that category's work).
  std::map<std::string, double> category_wall_ms;
  /// Derived from "sim/quantum" events: total quanta and how many had
  /// active recovery in flight (recovery_cores > 0 or em_recovery != 0) —
  /// must match `SystemSimulator::recovery_quanta()` of the traced run.
  std::size_t sim_quanta = 0;
  std::uint64_t sim_recovery_quanta = 0;
  /// Invariant name -> quanta whose "sim/quantum" event has a nonzero
  /// "violation.<name>" field; must match the traced run's
  /// `SystemSummary::invariant_violations`.
  std::map<std::string, std::uint64_t> sim_invariant_violations;
};

/// Parse a JSONL trace stream. Lines that are not valid objects of the
/// sink schema are counted in `malformed_lines` and skipped. A `null`
/// value (a non-finite number) is left out of its field's summary, but
/// its event still counts.
[[nodiscard]] TraceReport analyze_trace(std::istream& in);

/// Human-readable report (the tools/trace_report output).
void print_trace_report(std::ostream& os, const TraceReport& report);

}  // namespace dh::obs
