// The perceived-bandwidth micro-benchmark (Figs 9-13).
//
// Each sender thread computes and then marks its partition ready; the
// single-thread-delay model gives one laggard compute * (1 + noise).
// Perceived bandwidth = total buffer size / (receive completion - last
// Pready): early-bird transmission of the n-1 early partitions makes the
// application perceive far more than wire bandwidth for medium messages.
//
// Non-laggard threads additionally receive a small uniform jitter
// (0 .. jitter_per_thread * threads): on a real node, threads take turns
// incrementing the shared atomic arrival counter and get scheduled apart,
// which is exactly the spread the paper's Fig 12 measures and sizes delta
// against.
//
// The trial also returns what the paper's §V-A PMPI profiling records:
// per-partition Pready and arrival times of the last measured round, and
// Fig 12's minimum-delta estimate averaged over the measured rounds.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/time.hpp"
#include "mpi/world.hpp"
#include "part/options.hpp"

namespace partib::bench {

struct PerceivedConfig {
  std::size_t total_bytes = 0;
  std::size_t user_partitions = 32;
  part::Options options;
  Duration compute = msec(100);
  double noise = 0.04;
  /// Uniform per-thread arrival jitter scale (see header comment).
  Duration jitter_per_thread = nsec(1'100);
  int iterations = 10;
  int warmup = 3;
  std::uint64_t seed = 0x9E1A6A2Au;
  mpi::WorldOptions world;
};

struct PerceivedResult {
  double mean_gbytes_per_s = 0.0;
  double min_gbytes_per_s = 0.0;
  double max_gbytes_per_s = 0.0;
  /// Wire-limit reference line (single-threaded point-to-point).
  double wire_gbytes_per_s = 0.0;
  /// Mean work requests posted per measured round (delta-dependent for the
  /// timer aggregator: a small delta flushes more, smaller, runs).
  double mean_wrs_per_round = 0.0;
  /// Mean over the measured rounds of min_delta_estimate(round Preadys).
  Duration mean_min_delta = 0;
  /// Per user partition, the last measured round's Pready and arrival
  /// times, relative to that round's start.
  std::vector<Duration> pready_ns;
  std::vector<Duration> arrival_ns;
};

PerceivedResult run_perceived_bandwidth(PerceivedConfig cfg);

/// Fig 12's estimator: the spread between the first and the last
/// *non-laggard* Pready in a round (the laggard is the partition with
/// the latest Pready; negative times count as never ready).  Returns 0
/// for rounds with fewer than three partitions ready.
Duration min_delta_estimate(std::span<const Time> pready_times);

/// Per-partition estimated communication time from the bandwidth
/// equation the paper uses for Figs 10-11:
///   comm = partition_bytes / bandwidth.
Duration estimated_comm_time(std::size_t partition_bytes, double bytes_per_ns);

}  // namespace partib::bench
