// campaign_mixed: a cold sweep of short production cells through
// campaign::Runner, then a closed-loop, single-client request stream
// through run_cached_production over the committed cells (Zipf popularity)
// plus a small share of never-seen cells.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "campaign/cache.hpp"
#include "campaign/runner.hpp"
#include "campaign/serialize.hpp"
#include "mirror.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace dc = dfsim::core;
namespace dca = dfsim::campaign;
namespace fs = std::filesystem;
using dfsim::routing::Mode;

constexpr const char* kApps[] = {"MILC", "NEK5000", "HACC", "QBOX"};
constexpr int kNumApps = 4;
constexpr int kGridSeeds = 24;       ///< grid = apps x {AD0, AD3} x seeds
/// Machine states (background mix + placement) cycle over this many fixed
/// production snapshots, so every seed's cells have the same cost mix; per
/// seed, a cell's background drawn at random changed its cost several-fold
/// and moved the stream's throughput by 12% between seeds.
constexpr int kSnapshots = 64;
constexpr int kPool = 2000;          ///< never-seen cells the stream may draw
constexpr int kNewEvery = 32;        ///< every 32nd request is a new cell
constexpr double kZipfS = 1.0;       ///< popularity skew over grid cells
/// Memory LRU far below the key set: about a quarter of hits are memory
/// hits, so the hit median and tail are both disk hits.
constexpr std::size_t kMemEntries = 8;
constexpr int kMinRequests = 2000;   ///< p99 has >= 10 samples beyond it
/// The stream ends when the pool is used up.
constexpr int kMaxRequests = kPool * kNewEvery;
constexpr int kSetups = 7;

dc::ScenarioConfig cell(int app, Mode mode, std::uint64_t machine,
                        std::uint64_t seed) {
  dc::ScenarioConfig c = dc::ScenarioConfig::production();
  c.system = dfsim::topo::Config::theta_scaled();
  c.system.packet_payload_bytes = 4096;
  c.app = kApps[app];
  c.nnodes = 32;
  c.mode = mode;
  c.bg_utilization = 0.1;
  c.warmup = 20 * dfsim::sim::kMicrosecond;
  c.params.iterations = 1;
  c.params.msg_scale = 0.02;
  c.params.compute_scale = 0.02;
  c.params.seed = seed;
  c.seed = machine;
  c.shards = 0;
  return c;
}

struct Cell {
  dc::ScenarioConfig cfg;
  dca::Fingerprint fp;
  std::string label;
  std::uint64_t pair = 0;
};

/// Cell for the `group`-th AD0/AD3 x app block: snapshot group % kSnapshots,
/// application seed drawn from the workload seed.
Cell make_cell(int app, Mode mode, int group, std::uint64_t seed) {
  Cell c;
  c.cfg = cell(app, mode, 1 + static_cast<std::uint64_t>(group % kSnapshots),
               seed);
  c.fp = dca::scenario_fingerprint(c.cfg);
  c.label = std::string(kApps[app]) + "/" +
            (mode == Mode::kAd0 ? "AD0" : "AD3") + "/" + std::to_string(seed);
  c.pair = seed;
  return c;
}

/// Grid cells, then the pool of never-seen cells (AD0/AD3 pairs per app).
std::vector<Cell> grid_cells(std::uint64_t seed) {
  std::vector<Cell> g;
  for (int j = 0; j < kGridSeeds; ++j) {
    const std::uint64_t s =
        mix(seed, 1000 + static_cast<std::uint64_t>(j)) >> 16;
    for (int a = 0; a < kNumApps; ++a)
      for (const Mode m : {Mode::kAd0, Mode::kAd3})
        g.push_back(make_cell(a, m, j, s));
  }
  return g;
}

Cell pool_cell(std::uint64_t seed, int k) {
  const int group = k / (2 * kNumApps);
  const std::uint64_t s =
      mix(seed, 100000 + static_cast<std::uint64_t>(group)) >> 16;
  const int a = k % kNumApps;
  const Mode m = (k / kNumApps) % 2 == 0 ? Mode::kAd0 : Mode::kAd3;
  return make_cell(a, m, kGridSeeds + group, s);
}

/// Request plan: >= 0 is a grid index, < 0 is -(pool index + 1). Cell i
/// has popularity rank i; grid order interleaves apps and modes, so every
/// seed's hot set has the same mix and only the draws vary with the seed.
std::vector<int> request_plan(std::uint64_t seed, int grid) {
  InputRng rng(mix(seed, 0x57AEA3));
  std::vector<double> cdf(static_cast<std::size_t>(grid));
  double total = 0.0;
  for (int r = 0; r < grid; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[static_cast<std::size_t>(r)] = total;
  }
  std::vector<int> plan;
  plan.reserve(kMaxRequests);
  int next_new = 0;
  for (int q = 0; q < kMaxRequests; ++q) {
    if (q % kNewEvery == kNewEvery - 1) {
      plan.push_back(-(++next_new));
      continue;
    }
    const double u = rng.uniform() * total;
    const auto r = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    plan.push_back(static_cast<int>(std::min(r, cdf.size() - 1)));
  }
  return plan;
}

/// Cold sweep: every grid cell simulated at cell_jobs = nproc, committed to
/// a fresh cache and fsync'd to the journal. Returns the results loaded
/// back from the cache, each checked against its journal digest.
struct Sweep {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int jobs = 1;
  std::vector<dc::RunResult> results;
};

Sweep cold_sweep(const std::vector<Cell>& grid, const std::string& cache_dir,
                 const std::string& journal, DigestBook& book, Failures& f) {
  Sweep sw;
  sw.jobs = nproc();
  std::vector<dca::SweepCell> cells;
  for (const Cell& c : grid) cells.push_back({c.cfg, c.label});
  dca::ResultCache::Options o;
  o.dir = cache_dir;
  dca::ResultCache cache(o);
  dca::RunnerOptions ro;
  ro.out_path = journal;
  ro.cell_jobs = sw.jobs;
  dca::Runner runner(std::move(cells), cache, ro);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const dca::Runner::Outcome oc = runner.run();
  sw.wall_s = seconds_since(t0);
  sw.cpu_s = process_cpu_s() - cpu0;
  if (!oc.ok) f.fail("cold sweep: " + oc.error);
  if (oc.executed != static_cast<int>(grid.size()))
    f.fail("cold sweep simulated " + std::to_string(oc.executed) + " of " +
           std::to_string(grid.size()) + " cells");

  std::vector<std::string> digests;  // journal digests, in cell order
  std::ifstream in(journal);
  for (std::string line; std::getline(in, line);) {
    const auto p = line.find("\"digest\":\"");
    digests.push_back(p == std::string::npos ? "" : line.substr(p + 10, 32));
  }
  if (digests.size() != grid.size()) f.fail("journal has wrong line count");

  // Every committed cell must come back from the cache with the digest the
  // sweep journaled.
  dca::ResultCache reader(o);
  sw.results.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string what = "sweep cell " + grid[i].label;
    bool ok = false;
    if (auto bytes = reader.load(grid[i].fp)) {
      try {
        sw.results[i] = dca::deserialize_run_result(*bytes);
        ok = true;
      } catch (const dca::SerializeError& e) {
        f.fail(what + ": " + e.what());
      }
    }
    if (!ok) {
      f.op(false, what + ": not served back from the cache");
      continue;
    }
    check_result(sw.results[i], what, f);
    const std::string dg = dca::result_digest(sw.results[i]).hex();
    if (i < digests.size() && digests[i] != dg)
      f.fail(what + ": cache digest " + dg + " != journal " + digests[i]);
    std::string why;
    if (!book.check(grid[i].fp, sw.results[i], why)) f.fail(what + ": " + why);
  }
  if (reader.stats().corrupt != 0) f.fail("cache reported corrupt entries");
  return sw;
}

std::vector<ModedResult> moded(const std::vector<Cell>& grid,
                               const std::vector<dc::RunResult>& results) {
  std::vector<ModedResult> out;
  for (std::size_t i = 0; i < grid.size(); ++i)
    out.push_back(
        {&results[i], grid[i].cfg.mode, grid[i].cfg.app, grid[i].pair});
  return out;
}

}  // namespace

Outcome run_campaign_mixed(const Args& args) {
  Outcome out;
  Failures& f = out.failures;
  DigestBook book(args);
  const std::string cache_dir = args.work_dir + "/cache";

  // Set-up: cache open + grid and request-stream generation.
  std::vector<double> setup_s;
  std::vector<Cell> grid;
  std::vector<int> plan;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    dca::ResultCache::Options o;
    o.dir = cache_dir;
    o.mem_entries = kMemEntries;
    dca::ResultCache opened(o);
    grid = grid_cells(args.seed);
    plan = request_plan(args.seed, static_cast<int>(grid.size()));
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("campaign_mixed: %zu grid cells (%d apps x AD0/AD3 x %d seeds), "
              "%d-cell new pool, Zipf s=%.2f, 1 in %d requests new, "
              "LRU %zu entries\n",
              grid.size(), kNumApps, kGridSeeds, kPool, kZipfS, kNewEvery,
              kMemEntries);

  fs::remove_all(args.work_dir + "/cache");
  const auto measure0 = Clock::now();
  const Sweep sw = cold_sweep(grid, cache_dir, args.work_dir + "/journal.jsonl",
                              book, f);
  double sweep_packets = 0.0;
  for (const dc::RunResult& r : sw.results)
    sweep_packets += static_cast<double>(r.netstats.packets_delivered);

  // Closed-loop single-client stream over the committed cache.
  Tracer tr;
  Tracer* trp = args.trace ? &tr : nullptr;
  dfsim::net::EventProfile profile;
  dca::ResultCache::Options so;
  so.dir = cache_dir;
  so.mem_entries = kMemEntries;
  dca::ResultCache cache(so);
  std::vector<double> hit_us, miss_s, traced_miss_s;
  double miss_packets = 0.0;
  std::vector<dc::RunResult> traced;  // traced misses (trace mode)
  std::vector<std::size_t> traced_cells;
  std::vector<Cell> pool_used;
  const auto stream0 = Clock::now();
  int q = 0;
  for (; q < kMaxRequests; ++q) {
    if (q >= kMinRequests && seconds_since(measure0) >= args.seconds) break;
    const int p = plan[static_cast<std::size_t>(q)];
    const bool fresh = p < 0;  // each pool cell appears once in the plan
    const Cell c = fresh ? pool_cell(args.seed, -p - 1)
                         : grid[static_cast<std::size_t>(p)];
    if (fresh) pool_used.push_back(c);
    const std::string what = "request " + std::to_string(q) + " " + c.label;
    dc::RunResult r;
    bool served = false;
    const auto t0 = Clock::now();
    if (trp == nullptr) {
      dca::CachedRun cr = dca::run_cached_production(c.cfg, cache);
      served = cr.from_cache;
      r = std::move(cr.result);
    } else {
      Scope req(trp, "request", q);
      const dc::ScenarioConfig cfg = c.cfg.resolve();
      dca::Fingerprint fp;
      {
        Scope s(trp, "campaign.fingerprint", q);
        fp = dca::scenario_fingerprint(cfg);
      }
      std::optional<std::vector<std::uint8_t>> bytes;
      {
        Scope s(trp, "campaign.cache_load", q);
        bytes = cache.load(fp);
      }
      if (bytes) {
        Scope s(trp, "campaign.deserialize", q);
        try {
          r = dca::deserialize_run_result(*bytes);
          served = true;
        } catch (const dca::SerializeError& e) {
          f.fail(what + ": " + e.what());
        }
      }
      if (!served) {
        MirrorOptions mo;
        mo.tracer = trp;
        mo.op = q;
        mo.profile = &profile;
        MirrorResult m = traced_production(cfg, mo);
        traced_miss_s.push_back(m.wall_s);
        r = std::move(m.result);
        std::vector<std::uint8_t> out_bytes;
        {
          Scope s(trp, "campaign.serialize", q);
          out_bytes = dca::serialize(r);
        }
        Scope s(trp, "campaign.cache_store", q);
        cache.store(fp, out_bytes);
      }
    }
    const double dt = seconds_since(t0);
    (served ? hit_us : miss_s).push_back(served ? dt * 1e6 : dt);
    if (!served)
      miss_packets += static_cast<double>(r.netstats.packets_delivered);
    // Committed cells are always hits; a new cell misses exactly once.
    if (served == fresh)
      f.fail(what + (fresh ? ": new cell served from cache"
                           : ": committed cell missed the cache"));
    check_result(r, what, f);
    std::string why;
    if (!book.check(c.fp, r, why)) f.fail(what + ": " + why);
    if (trp != nullptr && !served && fresh) {
      traced.push_back(std::move(r));
      traced_cells.push_back(pool_used.size() - 1);
    }
  }
  const double stream_s = seconds_since(stream0);
  const dca::CacheStats cs = cache.stats();
  if (cs.corrupt != 0) f.fail("cache reported corrupt entries");

  // Trace faithfulness + packet conservation: mirror one committed cell
  // and compare it with the cold sweep's digest.
  {
    dfsim::net::EventProfile own;
    MirrorOptions mo;
    mo.profile = &own;
    mo.drain = true;
    MirrorResult m = traced_production(grid[0].cfg, mo);
    if (!m.drain_problem.empty())
      f.fail(grid[0].label + ": " + m.drain_problem);
    check_result(m.result, grid[0].label + " (mirror)", f);
    std::string why;
    if (!book.check(grid[0].fp, m.result, why))
      f.fail(grid[0].label + " (mirror): " + why);
  }

  if (trp != nullptr) {
    LayerInputs in;
    topo_figures(grid[0].cfg, in);
    // Untraced twins of up to eight traced misses: equal digests, and the
    // wall-time difference is the tracing overhead.
    std::vector<double> plain_s, traced_s;
    for (std::size_t k = 0; k < traced.size() && k < 8; ++k) {
      const Cell& c = pool_used[traced_cells[k]];
      const auto t0 = Clock::now();
      const dc::RunResult r = dc::run_production(c.cfg);
      plain_s.push_back(seconds_since(t0));
      traced_s.push_back(traced_miss_s[k]);
      check_result(r, c.label + " (untraced twin)", f);
      std::string why;
      if (!book.check(c.fp, r, why))
        f.fail(c.label + " (untraced twin): " + why);
    }
    in.results = moded(grid, sw.results);
    for (const auto& r : traced) in.traced.push_back(&r);
    in.tracer = &tr;
    in.profile = &profile;
    in.cell_busy_share = sw.cpu_s / (sw.wall_s * sw.jobs);
    if (!plain_s.empty())
      in.trace_overhead_pct =
          (median(traced_s) - median(plain_s)) / median(plain_s) * 100.0;
    in.cache = cs;
    in.peak_rss_mb = peak_rss_mib();
    out.per_layer = layer_metrics(in);
    if (!tr.write(args.work_dir + "/spans.jsonl"))
      f.fail("cannot write span file");
    fs::remove_all(cache_dir);
    return out;
  }

  if (book.recording()) {
    // Record every pool cell the stream did not reach, so any later run of
    // the default seed finds a recorded digest for each new cell it draws.
    for (int k = static_cast<int>(pool_used.size()); k < kPool; ++k) {
      const Cell c = pool_cell(args.seed, k);
      const dc::RunResult r = dc::run_production(c.cfg);
      check_result(r, c.label, f);
      std::string why;
      if (!book.check(c.fp, r, why)) f.fail(c.label + ": " + why);
    }
    if (!book.save()) f.fail("cannot write digest file");
  }
  fs::remove_all(cache_dir);

  double miss_total = 0.0;
  for (const double m : miss_s) miss_total += m;
  out.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"packets_per_s", miss_total > 0 ? miss_packets / miss_total : 0.0,
       "1/s"},
      {"hit_p90_us", percentile(hit_us, 90.0), "us"},
  };
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%.2f cells/s, %.4g packets/s (%zu cells, %.3f s, %d jobs, "
                "busy share %.3f)",
                static_cast<double>(grid.size()) / sw.wall_s,
                sweep_packets / sw.wall_s, grid.size(), sw.wall_s, sw.jobs,
                sw.cpu_s / (sw.wall_s * sw.jobs));
  print_line("cold sweep (host)", buf);
  std::snprintf(buf, sizeof buf,
                "%.2f requests/s (%d in %.3f s), hit rate %.4f, memory hits "
                "%.4f",
                q / stream_s, q, stream_s, cs.hit_rate(),
                cs.hits > 0 ? static_cast<double>(cs.mem_hits) /
                                  static_cast<double>(cs.hits)
                            : 0.0);
  print_line("request stream (host)", buf);
  print_line("hit latency (host)", describe(hit_us, "us", 1.0));
  print_line("miss latency (host)", describe(miss_s, "s", 1.0));

  print_line("setup_s (host)", describe(setup_s, "s", 1.0));
  std::snprintf(buf, sizeof buf, "%.4g MiB", peak_rss_mib());
  print_line("peak_rss_mb (host)", buf);
  const Ad3Gain gain = ad3_gain(moded(grid, sw.results));
  std::snprintf(buf, sizeof buf, "%.4f %% (err %.4f pp vs paper)",
                gain.gain_pct, gain.err_pp);
  print_line("ad3_gain (simulated)", buf);
  return out;
}

}  // namespace pb
