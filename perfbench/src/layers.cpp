#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>

#include "harness.hpp"
#include "topo/topology.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using dfsim::routing::Mode;

// Paper Table II: mean AD3-over-AD0 runtime improvement on Theta, percent.
double paper_gain_pct(const std::string& app) {
  static const std::map<std::string, double> kTable = {
      {"MILC", 11.0}, {"MILCREORDER", 11.9}, {"NEK5000", 2.2},
      {"HACC", -2.7}, {"QBOX", 4.8},         {"RAYLEIGH", 0.2}};
  const auto it = kTable.find(app);
  return it != kTable.end() ? it->second : 0.0;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

}  // namespace

void topo_figures(const dfsim::core::ScenarioConfig& cfg, LayerInputs& in) {
  std::vector<double> build_ms;
  for (int k = 0; k < 3; ++k) {
    const auto t0 = Clock::now();
    const auto topo = dfsim::topo::make_topology(cfg.system);
    build_ms.push_back(seconds_since(t0) * 1e3);
    in.topo_routers = topo->num_routers();
    in.topo_ports = 0;
    for (int r = 0; r < topo->num_routers(); ++r)
      in.topo_ports += topo->num_ports(r);
  }
  in.topo_build_ms = median(build_ms);
}

Ad3Gain ad3_gain(const std::vector<ModedResult>& results) {
  // app -> pair -> {AD0 runtime, AD3 runtime}
  std::map<std::string, std::map<std::uint64_t, std::pair<double, double>>>
      by_app;
  for (const ModedResult& m : results) {
    auto& p = by_app[m.app][m.pair];
    if (m.mode == Mode::kAd0) p.first = m.result->runtime_ms;
    if (m.mode == Mode::kAd3) p.second = m.result->runtime_ms;
  }
  Ad3Gain g;
  int apps = 0;
  for (const auto& [app, pairs] : by_app) {
    double sum = 0.0;
    int n = 0;
    for (const auto& [key, rt] : pairs) {
      if (rt.first <= 0.0 || rt.second <= 0.0) continue;
      sum += (rt.first - rt.second) / rt.first * 100.0;
      ++n;
    }
    if (n == 0) continue;
    const double gain = sum / n;
    g.gain_pct += gain;
    g.err_pp += std::fabs(gain - paper_gain_pct(app));
    ++apps;
  }
  if (apps > 0) {
    g.gain_pct /= apps;
    g.err_pp /= apps;
  }
  return g;
}

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  using dfsim::core::RunResult;
  std::vector<Metric> out;
  const auto add = [&out](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double nres = in.results.empty() ? 1.0 : d(in.results.size());
  // Mean over the simulated results of one field.
  const auto mean_of = [&](auto field) {
    double s = 0.0;
    for (const ModedResult& m : in.results) s += d(field(*m.result));
    return s / nres;
  };

  // Host-time spans.
  std::map<std::string, std::int64_t> self, count;
  std::int64_t trial_ns = 0;
  if (in.tracer != nullptr) {
    self = in.tracer->self_ns();
    count = in.tracer->counts();
    for (const Tracer::Span& sp : in.tracer->spans())
      if (std::string_view(sp.name) == "trial")
        trial_ns += sp.end_ns - sp.start_ns;
  }
  const auto per_span_ms = [&](const char* name) {
    const auto n = count[name];
    return n > 0 ? ms(self[name]) / d(n) : 0.0;
  };
  const std::int64_t sim_ns = self["sim.warmup"] + self["sim.run"];

  // Substrate counters of the traced trials.
  double events = 0, windows = 0, fused = 0, merges = 0, mail = 0,
         compacted = 0, barrier_ns = 0, coord_ns = 0, busy_ns = 0,
         wait_ns = 0, imbalance = 0;
  int workers = 0;
  for (const RunResult* r : in.traced) {
    const auto& se = r->shard_exec;
    events += d(r->events_executed);
    windows += d(se.windows);
    fused += d(se.windows_fused);
    merges += d(se.merges);
    mail += d(se.mail_records);
    compacted += d(se.mail_compacted);
    barrier_ns += d(se.barrier_wait_ns);
    coord_ns += d(se.coord_ns);
    for (const auto b : se.executor_busy_ns) busy_ns += d(b);
    for (const auto w : se.executor_wait_ns) wait_ns += d(w);
    imbalance += se.shard_imbalance();
    workers = std::max(workers, se.workers);
  }
  const double nt = in.traced.empty() ? 1.0 : d(in.traced.size());
  const double sim_d = sim_ns > 0 ? d(sim_ns) : 1.0;
  const double exec_d = sim_d * (workers > 0 ? workers : 1);

  add("sim.events", events / nt, "count");
  add("sim.host_ns_per_event", events > 0 ? d(sim_ns) / events : 0.0, "ns");
  add("sim.windows", windows / nt, "count");
  add("sim.windows_fused", fused / nt, "count");
  add("sim.merges", merges / nt, "count");
  add("sim.mail_records", mail / nt, "count");
  add("sim.mail_compacted", compacted / nt, "count");
  add("sim.barrier_wait_share", barrier_ns / sim_d, "ratio");
  add("sim.coord_share", coord_ns / sim_d, "ratio");
  add("sim.executor_wait_share", wait_ns / exec_d, "ratio");
  add("sim.parallel_util", busy_ns / exec_d, "ratio");
  add("sim.shard_imbalance", imbalance / nt, "ratio");

  // Forwarding plane.
  double delivered = 0, hops = 0;
  for (const ModedResult& m : in.results) {
    delivered += d(m.result->netstats.packets_delivered);
    hops += d(m.result->netstats.total_hops);
  }
  add("net.packets_delivered", delivered / nres, "count");
  add("net.hops_per_packet", delivered > 0 ? hops / delivered : 0.0, "hops");
  const dfsim::net::EventProfile* prof = in.profile;
  const auto ev = [&](int kind) {
    return prof != nullptr ? d(prof->count[kind]) / nt : 0.0;
  };
  const auto share = [&](int kind) {
    const auto total = prof != nullptr ? prof->total_wall_ns() : 0;
    return total > 0 ? d(prof->wall_ns[kind]) / d(total) : 0.0;
  };
  add("net.ev_injection", ev(dfsim::net::kEvInjection), "count");
  add("net.ev_hop", ev(dfsim::net::kEvHop), "count");
  add("net.ev_ejection", ev(dfsim::net::kEvEjection), "count");
  add("net.injection_share", share(dfsim::net::kEvInjection), "ratio");
  add("net.hop_share", share(dfsim::net::kEvHop), "ratio");
  add("net.ejection_share", share(dfsim::net::kEvEjection), "ratio");
  add("net.escapes",
      mean_of([](const RunResult& r) { return r.netstats.escapes; }),
      "count");
  add("net.throttle_activations",
      mean_of([](const RunResult& r) {
        return r.netstats.throttle_activations;
      }),
      "count");

  // Routing decisions, pooled per mode of the app under test.
  const auto nonmin_frac = [&](Mode mode) {
    double nonmin = 0, total = 0;
    const auto i = static_cast<std::size_t>(mode);
    for (const ModedResult& m : in.results) {
      if (m.mode != mode) continue;
      const auto& dec = m.result->netstats.decisions_by_mode[i];
      nonmin += d(dec[1]);
      total += d(dec[0] + dec[1]);
    }
    return total > 0 ? nonmin / total : 0.0;
  };
  add("routing.decisions", mean_of([](const RunResult& r) {
        return r.netstats.minimal_decisions + r.netstats.nonminimal_decisions;
      }),
      "count");
  add("routing.nonminimal_frac_ad0", nonmin_frac(Mode::kAd0), "ratio");
  add("routing.nonminimal_frac_ad3", nonmin_frac(Mode::kAd3), "ratio");

  static const char* const kStall[5] = {
      "router.stall_flit_rank3", "router.stall_flit_rank2",
      "router.stall_flit_rank1", "router.stall_flit_proc_req",
      "router.stall_flit_proc_rsp"};
  for (std::size_t k = 0; k < 5; ++k) {
    add(kStall[k], mean_of([k](const RunResult& r) {
          return r.local_stall_ratios()[k];
        }),
        "ratio");
  }

  const Ad3Gain gain = ad3_gain(in.results);
  add("apps.sim_runtime_ms",
      mean_of([](const RunResult& r) { return r.runtime_ms; }), "ms");
  add("apps.ad3_gain_pct", gain.gain_pct, "%");
  add("apps.ad3_gain_err_pp", gain.err_pp, "pp");
  add("mpi.mpi_fraction",
      mean_of([](const RunResult& r) { return r.autoperf.mpi_fraction; }),
      "ratio");

  add("topo.build_ms", in.topo_build_ms, "ms");
  add("topo.routers", in.topo_routers, "count");
  add("topo.ports", d(in.topo_ports), "count");

  add("sched.init_ms", per_span_ms("sched.init"), "ms");
  add("sched.allocate_ms", per_span_ms("sched.allocate"), "ms");
  add("sched.background_ms", per_span_ms("sched.background"), "ms");
  add("sched.rebalance_share",
      trial_ns > 0 ? d(self["sched.rebalance"]) / d(trial_ns) : 0.0, "ratio");
  add("sched.bg_jobs",
      mean_of([](const RunResult& r) { return r.background.jobs; }), "count");
  add("sched.alloc_failures", mean_of([](const RunResult& r) {
        return r.background.allocation_failures;
      }),
      "count");

  add("fault.recomputes",
      mean_of([](const RunResult& r) { return r.faults.recomputes; }),
      "count");
  add("fault.packets_rerouted",
      mean_of([](const RunResult& r) { return r.faults.packets_rerouted; }),
      "count");
  add("fault.packets_dropped",
      mean_of([](const RunResult& r) { return r.faults.packets_dropped; }),
      "count");
  add("fault.messages_retried",
      mean_of([](const RunResult& r) { return r.faults.messages_retried; }),
      "count");
  add("fault.messages_abandoned",
      mean_of([](const RunResult& r) { return r.faults.messages_abandoned; }),
      "count");
  add("fault.dead_link_transmissions", mean_of([](const RunResult& r) {
        return r.faults.dead_link_transmissions;
      }),
      "count");

  add("monitor.collect_ms", per_span_ms("monitor.collect"), "ms");

  add("campaign.fingerprint_us", per_span_ms("campaign.fingerprint") * 1e3,
      "us");
  add("campaign.cache_load_us", per_span_ms("campaign.cache_load") * 1e3,
      "us");
  add("campaign.deserialize_us", per_span_ms("campaign.deserialize") * 1e3,
      "us");
  add("campaign.serialize_us", per_span_ms("campaign.serialize") * 1e3, "us");
  add("campaign.cache_store_ms", per_span_ms("campaign.cache_store"), "ms");
  const auto& cs = in.cache;
  add("campaign.hit_rate", cs.hit_rate(), "ratio");
  add("campaign.mem_hit_rate", cs.hits > 0 ? d(cs.mem_hits) / d(cs.hits) : 0.0,
      "ratio");
  add("campaign.corrupt", d(cs.corrupt), "count");

  add("core.cell_busy_share", in.cell_busy_share, "ratio");
  add("mem.peak_rss_mb", in.peak_rss_mb, "MiB");
  add("trace.overhead_pct", in.trace_overhead_pct, "%");
  return out;
}

}  // namespace pb
