// trace_report: summarize a recorded JSONL trace (DH_TRACE output).
//
//   trace_report <trace.jsonl>        analyze a file
//   trace_report -                    analyze stdin
//
// Prints per-category event counts with an attributed wall-time breakdown,
// per-event-group field summaries (p50/p95/max), and — when the trace
// contains sim/quantum events — the exact recovery-quanta and
// invariant-violation counts the simulator reported while recording.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "common/obs/trace_report.hpp"

int main(int argc, char** argv) {
  if (argc != 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    std::fprintf(stderr,
                 "usage: trace_report <trace.jsonl>   (or '-' for stdin)\n"
                 "\n"
                 "Summarizes a JSONL trace recorded via DH_TRACE=<path>:\n"
                 "  - event counts per category, wall-time breakdown\n"
                 "  - per-group field histogram summaries (p50/p95/max)\n"
                 "  - scheduler recovery-quanta reconstruction\n"
                 "  - invariant-violation counts (quanta)\n");
    return argc == 2 ? 0 : 2;
  }

  dh::obs::TraceReport report;
  if (std::strcmp(argv[1], "-") == 0) {
    report = dh::obs::analyze_trace(std::cin);
  } else {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "trace_report: cannot open '%s'\n", argv[1]);
      return 1;
    }
    report = dh::obs::analyze_trace(in);
  }
  if (report.total_events == 0) {
    std::fprintf(stderr,
                 "trace_report: no events found (%zu malformed lines) — "
                 "was the trace recorded with DH_TRACE?\n",
                 report.malformed_lines);
    return 1;
  }
  dh::obs::print_trace_report(std::cout, report);
  return 0;
}
