// Traced mirror of core::run_production: the same public call sequence
// (Scheduler construction -> allocate -> add_background -> rebalance_shards
// -> run_for(warmup) -> submit_app_on -> run_to_completion -> monitor::
// collect), with a span around each call. Its result must digest equal to
// an untraced run_production of the same scenario; the benchmark checks
// that once per invocation, so the per-layer numbers describe the program
// the end-to-end numbers time.
#pragma once

#include <string>

#include "core/experiment.hpp"
#include "harness.hpp"
#include "net/network.hpp"

namespace pb {

struct MirrorOptions {
  Tracer* tracer = nullptr;  ///< null: no spans
  int op = 0;                ///< span operation id
  /// Per-event-kind profile (serial substrate only; the network rejects a
  /// profile in sharded mode).
  dfsim::net::EventProfile* profile = nullptr;
  /// After the result is taken: stop the background, drain the network,
  /// and check packet conservation (injected == delivered + dropped).
  bool drain = false;
};

struct MirrorResult {
  dfsim::core::RunResult result;
  double wall_s = 0.0;        ///< scenario -> result, drain excluded
  std::string drain_problem;  ///< empty when conservation held
};

[[nodiscard]] MirrorResult traced_production(
    const dfsim::core::ScenarioConfig& raw, const MirrorOptions& opt);

/// Standalone set-up of a scenario up to its first event (Scheduler
/// construction, allocation, background fill, shard rebalance), as
/// run_production performs it. Returns host seconds.
[[nodiscard]] double time_setup(const dfsim::core::ScenarioConfig& raw);

}  // namespace pb
