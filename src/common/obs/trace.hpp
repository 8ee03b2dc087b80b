// Structured event tracing: timestamped, categorized events with numeric
// fields, written through a pluggable TraceSink. The stock sink is JSONL —
// one self-contained object per line, so a trace survives crashes up to
// the last flushed line and tools/trace_report can stream-parse it.
//
// Off by default and zero-overhead when off: call sites guard with
// `if (obs::trace_enabled())`, a single relaxed atomic load, so no event
// object, field list, or timestamp is ever materialised. Enable by either
//   DH_TRACE=/path/to/trace.jsonl   (env; opened lazily on first event —
//                                    an unwritable path throws dh::Error
//                                    at the first emission, not silently)
// or programmatically via set_trace_sink() (tests, tools).
//
// Event schema (JSONL sink), one object per line:
//   {"cat":"sim","name":"quantum","t_wall_ms":12.345,"t_sim_s":21600,
//    "f":{"worst_deg":0.0123,"recovery_cores":4}}
// `t_wall_ms` is wall time since the sink was created; `t_sim_s` is the
// simulation clock and is omitted when the event has none. JSON has no
// NaN or infinity, so a non-finite value is written as `null`.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>

namespace dh::obs {

/// One numeric field of a trace event.
struct TraceField {
  const char* key;
  double value;
};

/// A single event, fully described (used by sinks and tests).
struct TraceEvent {
  const char* category = "";
  const char* name = "";
  double wall_ms = 0.0;  // since sink creation
  double sim_time_s = 0.0;
  bool has_sim_time = false;
  const TraceField* fields = nullptr;
  std::size_t field_count = 0;
};

/// Sink interface. Implementations must be safe to call from multiple
/// threads (the dispatcher serialises writes, but flush()/destruction can
/// race with nothing — the dispatcher owns the sink).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// JSONL file sink. Throws dh::Error naming the path when it cannot be
/// opened for writing (empty, a directory, a missing parent, a NUL byte).
/// Flushes on destruction so process exit never loses the tail of a trace.
class JsonlTraceSink : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;
  void write(const TraceEvent& event) override;
  void flush() override;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct Impl;
  std::string path_;
  std::unique_ptr<Impl> impl_;
};

/// True when a sink is installed or DH_TRACE names a file that has not
/// been opened yet. One relaxed load — the whole cost of disabled tracing.
[[nodiscard]] bool trace_enabled() noexcept;

/// Emit an event. Call only under `if (trace_enabled())`; when tracing is
/// disabled this is a no-op. Lazily opens the DH_TRACE sink on first use
/// and throws dh::Error if that path is unwritable.
void trace_event(const char* category, const char* name,
                 std::initializer_list<TraceField> fields);

/// Same, stamping the simulation clock (seconds) into the event.
void trace_event_at(const char* category, const char* name,
                    double sim_time_s,
                    std::initializer_list<TraceField> fields);

/// Install (or clear, with nullptr) the process trace sink. Replacing a
/// sink flushes and destroys the old one. Either way a DH_TRACE file not
/// yet opened is forgotten, so clearing leaves tracing off.
void set_trace_sink(std::unique_ptr<TraceSink> sink);

}  // namespace dh::obs
