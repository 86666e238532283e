// Shared types of the partib end-to-end benchmark (see ../README.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Scheduling-site tag of the events the benchmark itself schedules.
inline constexpr const char* kBenchSiteTag = "perfbench.pready";

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  /// Workload seed.  0 keeps the figure benches' pinned seeds.
  std::uint64_t seed = 0;
  /// Measurement budget; required (run.py passes BENCHMARK.json's
  /// run_seconds unless told otherwise).
  double seconds = 0.0;
  bool trace = false;
  /// Self-test grids: every code path, seconds long.
  bool tiny = false;
  /// Where the traced pass writes its span log.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run reports back to main().
struct Outcome {
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (sample counts,
  /// modelled results, failed_frac).
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of every deterministic count and result; equal across runs of
  /// one build at one seed (run.py checks this between runs).
  std::string digest;
};

/// Records a failed check: counted, and described on stderr.
void fail(Outcome& out, const std::string& what);

/// The round-latency note.  Printed but not gated: on a shared host the
/// run-to-run spread of these percentiles reaches the largest bound
/// BENCHMARK.json may set.
std::string round_note(double p50_us, double p99_us, const std::string& over);

/// Percentile (linear interpolation), median and minimum of a sample set.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
inline double lowest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::int64_t minor_faults = 0;
  double max_rss_mib = 0;
};
Usage usage_now();

Outcome run_incast(const Args& args);
Outcome run_zoo(const Args& args);
Outcome run_sweep(const Args& args);
Outcome run_shm_stream(const Args& args);

}  // namespace perfbench
