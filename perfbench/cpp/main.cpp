// perfbench: the partib end-to-end benchmark binary (see ../README.md).
//
//   perfbench --workload <incast|zoo|sweep|shm-stream> --seconds S
//             [--seed N] [--trace 0|1] [--tiny] [--out-dir DIR]
//   perfbench --build-info
//
// Prints notes, a "digest" line, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer split of a traced replay.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace perfbench {

void fail(Outcome& out, const std::string& what) {
  ++out.failed;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

std::string round_note(double p50_us, double p99_us,
                       const std::string& over) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "round_p50_us = %.17g us, round_p99_us = %.17g us", p50_us,
                p99_us);
  return buf + (" (" + over + "; not gated)");
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.minor_faults = ru.ru_minflt;
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return u;
}

namespace {

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<incast|zoo|sweep|shm-stream> --seconds S [--seed N] "
               "[--trace 0|1] [--tiny] [--out-dir DIR] | --build-info\n",
               msg);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

void print_build_info() {
  std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"partib_check\": %s}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              PARTIB_CHECK_ENABLED ? "true" : "false");
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--build-info") {
      print_build_info();
      std::exit(0);
    }
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage_error(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &a.seed)) usage_error("bad --seed");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(a.seconds > 0)) {
        usage_error("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (!parse_u64(value, &n) || n > 1) usage_error("bad --trace");
      a.trace = n == 1;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      usage_error(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!(a.seconds > 0)) usage_error("--seconds is required");
  return a;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  Outcome out;
  try {
    if (args.workload == "incast") {
      out = run_incast(args);
    } else if (args.workload == "zoo") {
      out = run_zoo(args);
    } else if (args.workload == "sweep") {
      out = run_sweep(args);
    } else if (args.workload == "shm-stream") {
      out = run_shm_stream(args);
    } else {
      usage_error(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  std::printf("failed_frac = %.17g (%llu of %llu)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf("digest %s\n", out.digest.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
