// Deterministic, seed-driven fault injection.
//
// Production code asks `fault::should_inject("site.name")` at the places
// where the real world can fail — a trace file hitting EIO, a bench
// artifact that cannot be published, a sensor returning garbage. With no
// faults configured the call is a single relaxed atomic load (the same
// discipline as obs::enabled()), so shipping the probes costs nothing.
//
// Faults are configured by spec string, either programmatically
// (fault::configure) or from the DH_FAULTS environment variable:
//
//   DH_FAULTS="site:prob:count[,site:prob:count...]"
//   DH_FAULT_SEED=12345        (optional; default 0xDEADF417)
//
//   sensor.outlier:0.5:2       - inject at site "sensor.outlier"
//                                with probability 0.5 per attempt, at
//                                most 2 times
//   sensor.nan:1:1             - fire on the first attempt, once
//
// `prob` is in [0,1]; `count` is a positive cap on total injections at
// that site (use a large value for "unlimited"). A malformed spec throws
// dh::Error naming the offending clause.
//
// Determinism: the decision for attempt n at a site is a pure function of
// (seed, site name, n) — a splitmix64 hash compared against prob — so a
// single-threaded run injects at exactly the same attempts every time.
// (Under a thread pool the per-site attempt order follows scheduling; the
// per-site *rate* and cap still hold.)
//
// Every injection increments the `fault.injected` registry counter, the
// per-site counter `fault.injected.<site>`, and emits a `fault/inject`
// trace event when tracing is on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dh::fault {

/// One parsed clause of a fault spec.
struct SiteSpec {
  std::string site;
  double probability = 0.0;
  std::uint64_t max_count = 0;
};

/// Parse a spec string (the DH_FAULTS grammar). Throws dh::Error on a
/// malformed clause. An empty string yields an empty vector.
[[nodiscard]] std::vector<SiteSpec> parse_fault_spec(const std::string& spec);

/// Replace the active configuration with `spec` (parsed per the grammar
/// above). Resets all attempt/injection counters.
void configure(const std::string& spec);

/// Override the decision seed (also resets counters). DH_FAULT_SEED is
/// honored on first use when this is never called.
void set_seed(std::uint64_t seed);

/// Clear every configured site and counter (tests).
void reset();

/// True when any site is armed — one relaxed load. Production probes call
/// should_inject directly; it performs this check first.
[[nodiscard]] bool armed() noexcept;

/// Decide whether the current attempt at `site` injects a fault. Counts
/// the attempt either way. Unconfigured sites never inject. The first
/// call overall loads DH_FAULTS / DH_FAULT_SEED; a malformed environment
/// spec throws dh::Error from here (catchable), not from static init.
[[nodiscard]] bool should_inject(const char* site);

/// should_inject without the `fault/inject` trace event. For probes that
/// sit *inside* the trace pipeline itself (e.g. the JSONL sink's write
/// path, which runs under the trace dispatcher lock): emitting a trace
/// event from there would re-enter the dispatcher and deadlock. Counters
/// still tick.
[[nodiscard]] bool should_inject_untraced(const char* site);

/// Total injections so far at `site` (0 when unconfigured).
[[nodiscard]] std::uint64_t injection_count(const char* site);

/// All sites currently configured (tests, diagnostics).
[[nodiscard]] std::vector<SiteSpec> configured_sites();

}  // namespace dh::fault
