#include "mirror.hpp"

#include <vector>

#include "monitor/autoperf.hpp"
#include "sched/scheduler.hpp"

namespace pb {

namespace dc = dfsim::core;

namespace {

// run_production's shard rebalance: weigh each group by its busy nodes.
void rebalance(dfsim::sched::Scheduler& sched) {
  auto& machine = sched.machine();
  const auto& topo = machine.topology();
  std::vector<std::uint64_t> weight(static_cast<std::size_t>(topo.groups()),
                                    0);
  for (dfsim::topo::NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (sched.allocator().is_busy(n))
      ++weight[static_cast<std::size_t>(topo.group_of_node(n))];
  }
  machine.rebalance_shards(weight);
}

void fill_shard_exec(dfsim::mpi::Machine& machine, int workers_requested,
                     dc::ShardExecStats& out) {
  auto* se = machine.sharded_engine();
  if (se == nullptr) return;
  out.shards = se->num_shards();
  out.workers = se->num_workers();
  out.workers_requested = workers_requested;
  out.lookahead = se->lookahead();
  out.windows = se->stats().windows;
  out.merges = se->stats().merges;
  out.windows_fused = se->stats().fused;
  out.mail_records = se->stats().mail_records;
  out.mail_posted = se->stats().mail_posted;
  out.mail_compacted = se->stats().mail_compacted;
  out.barrier_wait_ns = se->stats().barrier_wait_ns;
  out.coord_ns = se->stats().coord_ns;
  for (int s = 0; s < se->num_shards(); ++s)
    out.shard_events.push_back(se->shard(s).events_executed());
  for (const auto& ex : se->executor_stats()) {
    out.executor_busy_ns.push_back(ex.busy_ns);
    out.executor_wait_ns.push_back(ex.wait_ns);
  }
}

}  // namespace

MirrorResult traced_production(const dc::ScenarioConfig& raw,
                               const MirrorOptions& opt) {
  Tracer* tr = opt.tracer;
  const int op = opt.op;
  MirrorResult out;
  dc::RunResult& res = out.result;
  const auto t0 = Clock::now();
  Scope trial(tr, "trial", op);

  dc::ScenarioConfig cfg = raw.resolve();
  cfg.event_profile = opt.profile;
  Scope init(tr, "sched.init", op);
  dfsim::sched::Scheduler sched(cfg.system, cfg.seed, cfg.shards,
                                cfg.shard_workers);
  auto& machine = sched.machine();
  machine.set_event_budget(cfg.event_budget);
  machine.network().set_event_profile(cfg.event_profile);
  machine.network().set_event_coalescing(cfg.coalesce_events);
  machine.network().apply_fault_plan(cfg.faults);
  if (auto* se = machine.sharded_engine())
    se->set_inline_merge(cfg.shard_inline_merge);
  init.close();

  std::vector<dfsim::topo::NodeId> nodes;
  {
    Scope s(tr, "sched.allocate", op);
    nodes = sched.allocator().allocate(cfg.nnodes, cfg.placement, sched.rng(),
                                       cfg.target_groups);
  }
  if (nodes.empty()) {
    res.fail_reason = "allocation failed: " + std::to_string(cfg.nnodes) +
                      " nodes unavailable on " + cfg.system.name;
    out.wall_s = seconds_since(t0);
    return out;
  }
  res.groups_spanned = machine.topology().groups_spanned(nodes);

  dfsim::sched::BackgroundSet bg;
  if (cfg.bg_utilization > 0.0) {
    Scope s(tr, "sched.background", op);
    bg = sched.add_background(cfg.bg_utilization, cfg.bg_mode,
                              cfg.bg_placement);
  }
  res.background.jobs = static_cast<int>(bg.jobs.size());
  res.background.total_nodes = bg.total_nodes;
  res.background.target_utilization = bg.target_utilization;
  res.background.achieved_utilization = bg.achieved_utilization;
  res.background.allocation_attempts = bg.allocation_attempts;
  res.background.allocation_failures = bg.allocation_failures;

  if (cfg.shard_balance && machine.sharded_engine() != nullptr) {
    Scope s(tr, "sched.rebalance", op);
    rebalance(sched);
  }

  {
    Scope s(tr, "sim.warmup", op);
    machine.run_for(cfg.warmup);
  }
  dfsim::net::CounterSnapshot global_base;
  dfsim::mpi::JobId id = -1;
  dfsim::net::CounterSnapshot local_base;
  {
    Scope s(tr, "mpi.submit", op);
    global_base = machine.network().snapshot_all();
    id = sched.submit_app_on(cfg.app, std::move(nodes), cfg.mode, cfg.params);
    local_base = dfsim::monitor::local_baseline(machine, id);
  }

  const dfsim::mpi::JobId watch[] = {id};
  bool completed = false;
  {
    Scope s(tr, "sim.run", op);
    completed = machine.run_to_completion(watch);
  }
  res.events_executed = machine.events_executed();
  res.budget_exhausted = machine.budget_exhausted();
  res.faults = machine.network().fault_stats();
  fill_shard_exec(machine, cfg.shard_workers, res.shard_exec);
  if (!completed) {
    res.fail_reason = res.budget_exhausted
                          ? "event budget exhausted (" +
                                std::to_string(cfg.event_budget) + " events)"
                          : "run stopped before job completion";
    out.wall_s = seconds_since(t0);
    return out;
  }

  {
    Scope s(tr, "monitor.collect", op);
    res.ok = true;
    res.autoperf = dfsim::monitor::collect(machine, id, local_base);
    res.runtime_ms = res.autoperf.runtime_ms;
    res.global = machine.network().snapshot_all().delta_since(global_base);
    res.netstats = machine.network().stats();
    res.flit_times = machine.network().flit_times();
  }
  out.wall_s = seconds_since(t0);
  trial.close();

  if (opt.drain) {
    // Conservation: once the background is stopped and the event queue has
    // drained, every injected packet was delivered or dropped by a fault.
    // (Stopped background ranks may stay blocked on peers that stopped
    // first, so only the drain, not job completion, is required.)
    sched.stop_background(bg);
    (void)machine.run_to_completion(bg.jobs);
    machine.run_until_stopped();
    const auto ns = machine.network().stats();
    const auto fs = machine.network().fault_stats();
    const std::int64_t in_flight = machine.network().packets_in_flight();
    const std::int64_t lost = ns.packets_injected - ns.packets_delivered;
    if (machine.budget_exhausted()) {
      out.drain_problem = "event budget exhausted while draining";
    } else if (in_flight != 0) {
      out.drain_problem =
          std::to_string(in_flight) + " packets still in flight after drain";
    } else if (lost < 0 || lost > fs.packets_dropped) {
      out.drain_problem = "injected " + std::to_string(ns.packets_injected) +
                          " != delivered " +
                          std::to_string(ns.packets_delivered) + " + dropped " +
                          std::to_string(fs.packets_dropped);
    }
  }
  return out;
}

double time_setup(const dc::ScenarioConfig& raw) {
  const auto t0 = Clock::now();
  const dc::ScenarioConfig cfg = raw.resolve();
  dfsim::sched::Scheduler sched(cfg.system, cfg.seed, cfg.shards,
                                cfg.shard_workers);
  auto& machine = sched.machine();
  machine.set_event_budget(cfg.event_budget);
  machine.network().set_event_coalescing(cfg.coalesce_events);
  machine.network().apply_fault_plan(cfg.faults);
  auto nodes = sched.allocator().allocate(cfg.nnodes, cfg.placement,
                                          sched.rng(), cfg.target_groups);
  if (cfg.bg_utilization > 0.0)
    (void)sched.add_background(cfg.bg_utilization, cfg.bg_mode,
                               cfg.bg_placement);
  if (cfg.shard_balance && machine.sharded_engine() != nullptr)
    rebalance(sched);
  return seconds_since(t0);
}

}  // namespace pb
