#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "campaign/serialize.hpp"

namespace pb {

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return 1;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double tail_quantile(std::size_t n) {
  double best = 50.0;
  for (const double q : {90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0) best = q;
  }
  return best;
}

std::string describe(const std::vector<double>& v, const char* unit,
                     double scale) {
  char buf[160];
  const double tq = tail_quantile(v.size());
  if (tq > 50.0) {
    std::snprintf(buf, sizeof buf, "p50 %.4g %s, p%g %.4g %s (n=%zu)",
                  median(v) * scale, unit, tq, percentile(v, tq) * scale,
                  unit, v.size());
  } else {
    std::snprintf(buf, sizeof buf, "p50 %.4g %s (n=%zu)", median(v) * scale,
                  unit, v.size());
  }
  return buf;
}

void print_line(const char* label, const std::string& text) {
  std::printf("  %-28s %s\n", label, text.c_str());
}

void Failures::op(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    problems_.push_back(why);
  }
}

void Failures::fail(const std::string& why) {
  ++failed_;
  problems_.push_back(why);
}

DigestBook::DigestBook(const Args& args)
    : record_(args.record),
      against_recorded_(args.record.empty() && args.seed == kDefaultSeed) {
  if (!against_recorded_) return;
  std::ifstream in(args.digests);
  std::string fp, dg;
  while (in >> fp >> dg) recorded_[fp] = dg;
  loaded_ = !recorded_.empty();
}

bool DigestBook::check(const dfsim::campaign::Fingerprint& fp,
                       const dfsim::core::RunResult& r, std::string& why) {
  const std::string key = fp.hex();
  const std::string dg = dfsim::campaign::result_digest(r).hex();
  if (against_recorded_) {
    const auto it = recorded_.find(key);
    if (it == recorded_.end()) {
      why = loaded_ ? "no recorded digest for scenario " + key
                    : "recorded digest file missing or empty";
      return false;
    }
    if (it->second != dg) {
      why = "digest " + dg + " != recorded " + it->second + " for " + key;
      return false;
    }
  }
  const auto [it, fresh] = seen_.emplace(key, dg);
  if (!fresh && it->second != dg) {
    why = "repeat of scenario " + key + " gave digest " + dg + " != " +
          it->second;
    return false;
  }
  return true;
}

bool DigestBook::save() const {
  std::ofstream out(record_);
  for (const auto& [fp, dg] : seen_) out << fp << ' ' << dg << '\n';
  return static_cast<bool>(out);
}

void check_result(const dfsim::core::RunResult& r, const std::string& tag,
                  Failures& f) {
  std::string why;
  if (!r.ok) why += " run failed: " + r.fail_reason + ";";
  if (r.budget_exhausted) why += " event budget exhausted;";
  if (r.faults.dead_link_transmissions != 0)
    why += " packets committed to dead links;";
  if (r.netstats.packets_delivered > r.netstats.packets_injected)
    why += " more packets delivered than injected;";
  f.op(why.empty(), tag + ":" + why);
}

int Tracer::begin(const char* name, int op) {
  const int parent = open_.empty() ? -1 : open_.back();
  const auto now = ns_between(t0_, Clock::now());
  spans_.push_back({name, now, now, parent, op});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = ns_between(t0_, Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += (s.end_ns - s.start_ns) - child[i];
  }
  return out;
}

std::map<std::string, std::int64_t> Tracer::counts() const {
  std::map<std::string, std::int64_t> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace pb
