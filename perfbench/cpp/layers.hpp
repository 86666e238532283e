// Per-layer metrics of the traced run, by module.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "runner/fingerprint.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Work counts read through public calls after each replayed config.
/// Deterministic: equal between the traced and untraced replay, and
/// between runs at one seed.
struct Counts {
  std::uint64_t sim_events = 0;
  std::uint64_t handshake_events = 0;
  std::uint64_t rdma_ops = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t wrs_posted = 0;
  std::uint64_t establishments = 0;
  std::uint64_t recycles = 0;
  std::uint64_t replans = 0;
  std::uint64_t start_calls = 0;
  std::uint64_t pready_calls = 0;
  std::int64_t hot_qps = 0;                 ///< max over configs, rank 0
  std::uint64_t hot_provisioned_bytes = 0;  ///< max over configs, rank 0

  bool operator==(const Counts&) const = default;
  void hash(partib::runner::Hasher& h) const;
};

/// Everything layer_metrics() needs beyond the tracer's own spans.
struct LayerInputs {
  double runner_trials = 0;
  double runner_overhead_s = 0;
  /// Trial-form time outside the public calls the replay makes: the
  /// bench harness's own buffers and bookkeeping.
  double bench_harness_s = 0;
  double host_user_s = 0;
  double host_sys_s = 0;
  double host_minor_faults = 0;
  Counts counts;
  double peak_inflight = 0;
  double mean_inflight = 0;
  double flow_rounds = 0;
  double shm_rdma_ops = 0;
  double trace_overhead_ratio = 0;
  /// The workload's modelled result(s); the others print as 0.
  std::map<std::string, double> sim;
};

/// Every per-layer metric of BENCHMARK.json, in a fixed order; a layer
/// the workload does not reach reads 0.
std::vector<Metric> layer_metrics(const Tracer& tracer, const LayerInputs& in);

}  // namespace perfbench
