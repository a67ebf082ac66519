// Repository benchmark program: runs one workload per process (so peak RSS
// is that workload's alone) and prints a host/build record, human-readable
// metric lines, and, as the last line, one JSON result object.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_CXX_FLAGS
#define PB_CXX_FLAGS "unknown"
#endif
#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif

namespace {

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(p + 2);
    }
  }
  return "unknown";
}

bool parse(int argc, char** argv, pb::Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atoi(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--digests") a.digests = v;
    else if (k == "--record") a.record = v;
    else if (k == "--commit") a.commit = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.work_dir.empty() &&
         a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --work-dir DIR [--seed N] "
                 "[--seconds S] [--trace 0|1] [--digests FILE] "
                 "[--record FILE] [--commit SHA]\n",
                 argv[0]);
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::string build_type = PB_BUILD_TYPE;
  const bool eligible = build_type == "Release" && hw > 1 && pb::nproc() > 1;
  std::printf(
      "host: {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, "
      "\"nproc\": %d, \"hw_threads\": %d, \"cpu_model\": %s, \"compiler\": %s, "
      "\"flags\": %s, \"build_type\": %s, \"commit\": %s, "
      "\"baseline_eligible\": %s}\n",
      json_str(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, pb::nproc(), hw, json_str(cpu_model()).c_str(),
      json_str(PB_COMPILER).c_str(), json_str(PB_CXX_FLAGS).c_str(),
      json_str(build_type).c_str(), json_str(args.commit).c_str(),
      eligible ? "true" : "false");
  if (!eligible)
    std::printf("WARNING: not a baseline capture (needs a Release build and "
                "more than one hardware thread)\n");

  pb::Outcome out;
  try {
    if (args.workload == "milc_pair") out = pb::run_milc_pair(args);
    else if (args.workload == "hacc_full_sharded")
      out = pb::run_hacc_full_sharded(args);
    else if (args.workload == "campaign_mixed")
      out = pb::run_campaign_mixed(args);
    else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 3;
  }

  const pb::Failures& f = out.failures;
  constexpr std::size_t kShown = 20;
  for (std::size_t i = 0; i < f.problems().size() && i < kShown; ++i)
    std::printf("FAILED: %s\n", f.problems()[i].c_str());
  if (f.problems().size() > kShown)
    std::printf("FAILED: ... %zu more\n", f.problems().size() - kShown);
  const auto& metrics = args.trace ? out.per_layer : out.end_to_end;
  const char* kind =
      args.trace ? "per-layer (traced run)" : "end-to-end (untraced run)";
  std::printf("%s metrics:\n", kind);
  for (const pb::Metric& m : metrics)
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-32s %lld / %lld\n", "fail_ratio (failed/attempted)",
              static_cast<long long>(f.failed()),
              static_cast<long long>(f.attempted()));

  std::string line = "{\"correct\": ";
  line += f.failed() == 0 && f.attempted() > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(f.attempted());
  line += ", \"failed\": " + std::to_string(f.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_str(metrics[i].name) + ": {\"value\": " +
            json_num(metrics[i].value) + ", \"unit\": " +
            json_str(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
