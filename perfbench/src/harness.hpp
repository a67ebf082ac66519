// Shared pieces of the repository benchmark: arguments, timing and sample
// statistics, the out-of-library span tracer, digest bookkeeping and
// failure accounting.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/fingerprint.hpp"
#include "core/experiment.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] std::int64_t ns_between(Clock::time_point a,
                                      Clock::time_point b);

/// The seed every recorded digest was captured with.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  int seconds = 20;
  bool trace = false;
  std::string digests;   ///< recorded-digest file for this workload
  std::string work_dir;  ///< scratch space for caches, journals, traces
  std::string record;    ///< non-empty: write digests here instead of checking
  std::string commit = "unknown";
};

/// Host threads the process may use (sched_getaffinity, like nproc).
[[nodiscard]] int nproc();

/// Deterministic 64-bit mixer for deriving scenario seeds from the
/// workload seed (splitmix64 finalizer).
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Small deterministic generator for benchmark inputs (never shared with
/// the library: the library only sees the scenarios built from it).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return s_ = mix(s_, 0x632be59bd9b4e019ULL); }
  /// Uniform in [0, 1) from the top 53 bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

// ---------------------------------------------------------------------------
// Sample statistics.

/// Linear-interpolated percentile (q in [0, 100]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}
/// Highest of {50, 90, 99, 99.9, 99.99} with at least ten samples beyond it.
[[nodiscard]] double tail_quantile(std::size_t n);
/// "p50 X, p99 Y (n=N)" for a human summary line.
[[nodiscard]] std::string describe(const std::vector<double>& v,
                                   const char* unit, double scale);
/// Prints one indented "label  text" summary line.
void print_line(const char* label, const std::string& text);

// ---------------------------------------------------------------------------
// Metrics and failure accounting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Failures {
 public:
  /// Counts one attempted operation; a false `ok` counts it as failed and
  /// keeps `why` for the report.
  void op(bool ok, const std::string& why = {});
  /// Counts a broken check inside an operation already counted.
  void fail(const std::string& why);
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> problems_;
};

struct Outcome {
  std::vector<Metric> end_to_end;  ///< untraced run
  std::vector<Metric> per_layer;   ///< traced run
  Failures failures;
};

// ---------------------------------------------------------------------------
// Output-correctness bookkeeping.

/// Result digests keyed by scenario fingerprint. For the default seed every
/// digest must equal the recorded one; for any seed, every repeat of a
/// scenario must equal its first run.
class DigestBook {
 public:
  /// Loads `path` (lines "<fingerprint> <digest>") when checking the
  /// default seed; `record` mode collects digests instead.
  DigestBook(const Args& args);
  /// Checks one result; returns false (with `why`) on a mismatch.
  bool check(const dfsim::campaign::Fingerprint& fp,
             const dfsim::core::RunResult& r, std::string& why);
  /// Record mode: writes every digest seen. Returns false on I/O error.
  bool save() const;
  [[nodiscard]] bool recording() const { return !record_.empty(); }

 private:
  std::string record_;
  bool against_recorded_ = false;
  bool loaded_ = false;
  std::map<std::string, std::string> recorded_;
  std::map<std::string, std::string> seen_;
};

/// Counts one simulated result as an operation, failed unless it is ok and
/// keeps the per-result invariants.
void check_result(const dfsim::core::RunResult& r, const std::string& tag,
                  Failures& f);

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's side of each library call.

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< index into spans(), -1 for a root
    int op;      ///< trial / request id shared by one operation's spans
  };
  /// Opens a span as a child of the innermost open span.
  int begin(const char* name, int op);
  void end(int id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time (span minus its children) summed per span name, in ns.
  [[nodiscard]] std::map<std::string, std::int64_t> self_ns() const;
  /// Count of spans per name.
  [[nodiscard]] std::map<std::string, std::int64_t> counts() const;
  /// Writes every span as JSON lines; returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* t, const char* name, int op)
      : t_(t), id_(t != nullptr ? t->begin(name, op) : -1) {}
  ~Scope() { close(); }
  /// Ends the span before the scope does (idempotent).
  void close() {
    if (t_ != nullptr) t_->end(id_);
    t_ = nullptr;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();
/// Process CPU time (user + system), seconds.
[[nodiscard]] double process_cpu_s();

}  // namespace pb
