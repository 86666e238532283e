#include "bench/perceived.hpp"

#include <algorithm>
#include <limits>

#include "bench/rig.hpp"
#include "common/assert.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"

namespace partib::bench {

PerceivedResult run_perceived_bandwidth(PerceivedConfig cfg) {
  PARTIB_ASSERT(cfg.total_bytes > 0 && cfg.user_partitions > 0);
  Rig rig(cfg.world, 2);
  sim::Engine& engine = rig.engine();
  sim::Rng rng(cfg.seed);
  const Channel c = rig.channel(0, 1, 0, cfg.total_bytes,
                                cfg.user_partitions, cfg.options);
  part::PsendRequest& send = *c.send;
  part::PrecvRequest& recv = *c.recv;
  rig.settle();

  PerceivedResult res;
  res.min_gbytes_per_s = std::numeric_limits<double>::max();
  res.wire_gbytes_per_s = cfg.world.nic.link_bytes_per_ns();  // B/ns == GB/s
  double sum = 0.0;
  int measured = 0;
  std::uint64_t wrs_at_measure_start = 0;
  Duration min_delta_sum = 0;
  Time round_start = 0;
  res.pready_ns.assign(cfg.user_partitions, -1);
  res.arrival_ns.assign(cfg.user_partitions, -1);
  recv.set_arrival_hook([&](std::size_t p, Time t) {
    res.arrival_ns[p] = t - round_start;
  });

  for (int iter = 0; iter < cfg.warmup + cfg.iterations; ++iter) {
    const bool record = iter >= cfg.warmup;
    if (iter == cfg.warmup) wrs_at_measure_start = send.wrs_posted_total();
    PARTIB_ASSERT(ok(send.start()));
    PARTIB_ASSERT(ok(recv.start()));
    round_start = engine.now();

    // Single-thread-delay arrival pattern plus per-thread jitter.
    const std::size_t laggard = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(cfg.user_partitions) - 1));
    sim::ArrivalPattern pattern = sim::many_before_one(
        cfg.user_partitions, cfg.compute, cfg.noise, laggard);
    const Duration jitter_span =
        cfg.jitter_per_thread *
        static_cast<Duration>(cfg.user_partitions);
    for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
      if (i == laggard) continue;
      pattern[i] += static_cast<Duration>(
          rng.uniform(0.0, static_cast<double>(jitter_span)));
    }

    Time last_pready = 0;
    for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
      rig.rank(0).cpu().submit(pattern[i], [&, i] {
        last_pready = std::max(last_pready, engine.now());
        res.pready_ns[i] = engine.now() - round_start;
        PARTIB_ASSERT(ok(send.pready(i)));
      });
    }
    Time recv_done = -1;
    recv.when_complete([&] { recv_done = engine.now(); });
    engine.run();
    PARTIB_ASSERT(send.test() && recv.test());
    PARTIB_ASSERT(recv_done >= last_pready);

    if (record) {
      const double latency =
          static_cast<double>(recv_done - last_pready);  // ns
      const double gbps = static_cast<double>(cfg.total_bytes) / latency;
      sum += gbps;
      res.min_gbytes_per_s = std::min(res.min_gbytes_per_s, gbps);
      res.max_gbytes_per_s = std::max(res.max_gbytes_per_s, gbps);
      min_delta_sum += min_delta_estimate(res.pready_ns);
      ++measured;
    }
  }
  res.mean_gbytes_per_s = sum / std::max(measured, 1);
  res.mean_wrs_per_round =
      static_cast<double>(send.wrs_posted_total() - wrs_at_measure_start) /
      std::max(measured, 1);
  res.mean_min_delta = min_delta_sum / std::max(measured, 1);
  return res;
}

Duration min_delta_estimate(std::span<const Time> pready_times) {
  // Identify the laggard (latest Pready), then take the spread of the
  // remaining arrivals.
  Time latest = -1;
  std::size_t laggard = 0;
  std::size_t valid = 0;
  for (std::size_t i = 0; i < pready_times.size(); ++i) {
    const Time t = pready_times[i];
    if (t < 0) continue;
    ++valid;
    if (t > latest) {
      latest = t;
      laggard = i;
    }
  }
  if (valid < 3) return 0;
  Time first = std::numeric_limits<Time>::max();
  Time last = std::numeric_limits<Time>::min();
  for (std::size_t i = 0; i < pready_times.size(); ++i) {
    const Time t = pready_times[i];
    if (t < 0 || i == laggard) continue;
    first = std::min(first, t);
    last = std::max(last, t);
  }
  return last - first;
}

Duration estimated_comm_time(std::size_t partition_bytes,
                             double bytes_per_ns) {
  PARTIB_ASSERT(bytes_per_ns > 0.0);
  return static_cast<Duration>(static_cast<double>(partition_bytes) /
                               bytes_per_ns);
}

}  // namespace partib::bench
