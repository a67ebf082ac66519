// The benchmark's three workloads and the per-layer metric assembly they
// share. Each workload returns its end-to-end metrics (untraced run) or its
// per-layer metrics (traced run), plus the failure count of every check.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "core/experiment.hpp"
#include "harness.hpp"
#include "net/network.hpp"

namespace pb {

[[nodiscard]] Outcome run_milc_pair(const Args& args);
[[nodiscard]] Outcome run_hacc_full_sharded(const Args& args);
[[nodiscard]] Outcome run_campaign_mixed(const Args& args);

/// One simulated result with the routing mode its app ran under.
struct ModedResult {
  const dfsim::core::RunResult* result;
  dfsim::routing::Mode mode;
  std::string app;
  std::uint64_t pair;  ///< AD0/AD3 runs of one pair share this key
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  std::vector<ModedResult> results;  ///< simulated statistics
  /// Trials the tracer covered (host-time ratios, substrate counters).
  std::vector<const dfsim::core::RunResult*> traced;
  const Tracer* tracer = nullptr;    ///< host-time spans
  const dfsim::net::EventProfile* profile = nullptr;  ///< serial only
  double topo_build_ms = 0.0;
  int topo_routers = 0;
  std::int64_t topo_ports = 0;
  double cell_busy_share = 0.0;  ///< campaign sweep only
  double trace_overhead_pct = 0.0;
  dfsim::campaign::CacheStats cache;  ///< the traced requests' cache
  double peak_rss_mb = 0.0;  ///< this process, at the end of the traced run
};

/// Times topo::make_topology for `cfg.system` (median of 3) and records the
/// table sizes.
void topo_figures(const dfsim::core::ScenarioConfig& cfg, LayerInputs& in);

/// The full per-layer metric list (same names and units on every workload).
[[nodiscard]] std::vector<Metric> layer_metrics(const LayerInputs& in);

/// Simulated AD3-over-AD0 runtime gain (percent), averaged per app over the
/// paired seeds, and its mean distance from the paper's Table II values.
struct Ad3Gain {
  double gain_pct = 0.0;
  double err_pp = 0.0;
};
[[nodiscard]] Ad3Gain ad3_gain(const std::vector<ModedResult>& results);

}  // namespace pb
