#include "model/ploggp.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace partib::model {

Duration completion_time(const LogGPParams& p, const PLogGPQuery& q) {
  PARTIB_ASSERT(q.transport_partitions >= 1);
  PARTIB_ASSERT(q.message_bytes >= q.transport_partitions);
  const auto P = static_cast<Duration>(q.transport_partitions);
  const std::size_t k = q.message_bytes / q.transport_partitions;
  return q.delay + p.o_s + p.wire_time(k) + p.L + p.o_r +
         (P - 1) * p.per_message_cost();
}

Duration completion_time_with_drain(const LogGPParams& p,
                                    const PLogGPQuery& q) {
  PARTIB_ASSERT(q.transport_partitions >= 1);
  PARTIB_ASSERT(q.message_bytes >= q.transport_partitions);
  const auto P = static_cast<Duration>(q.transport_partitions);
  const std::size_t k = q.message_bytes / q.transport_partitions;
  const Duration period = std::max(p.g, p.wire_time(k));
  const Duration early_drain = p.o_s + (P - 1) * period;
  const Duration laggard_start = std::max(q.delay + p.o_s, early_drain);
  return laggard_start + p.wire_time(k) + p.L + p.o_r +
         (P - 1) * p.per_message_cost();
}

Duration back_to_back_time(const LogGPParams& p, std::size_t k,
                           std::size_t messages) {
  PARTIB_ASSERT(messages >= 1 && k >= 1);
  const auto m = static_cast<Duration>(messages);
  const Duration per_byte =
      static_cast<Duration>(p.G * static_cast<double>(k - 1));
  return p.o_s + m * per_byte + (m - 1) * p.per_message_cost() + p.L + p.o_r;
}

Duration single_message_time(const LogGPParams& p, std::size_t k) {
  return back_to_back_time(p, k, 1);
}

namespace {

using CompletionFn = Duration (*)(const LogGPParams&, const PLogGPQuery&);

std::size_t optimize(const LogGPParams& p, std::size_t message_bytes,
                     std::size_t user_partitions, const OptimizerConfig& cfg,
                     CompletionFn completion) {
  PARTIB_ASSERT(message_bytes > 0);
  PARTIB_ASSERT_MSG(is_pow2(user_partitions),
                    "user partition counts are restricted to powers of two");
  const std::size_t cap =
      std::min(user_partitions, cfg.max_transport_partitions);
  std::size_t best = 1;
  Duration best_time = 0;
  for (std::size_t P = 1; P <= cap; P *= 2) {
    if (message_bytes < P) break;  // cannot split below one byte/partition
    const Duration t =
        completion(p, PLogGPQuery{message_bytes, P, cfg.delay});
    if (P == 1 || t < best_time) {
      best = P;
      best_time = t;
    }
  }
  return best;
}

}  // namespace

std::size_t optimal_transport_partitions(const LogGPParams& p,
                                         std::size_t message_bytes,
                                         std::size_t user_partitions,
                                         const OptimizerConfig& cfg) {
  return optimize(p, message_bytes, user_partitions, cfg, &completion_time);
}

std::size_t optimal_transport_partitions_with_drain(
    const LogGPParams& p, std::size_t message_bytes,
    std::size_t user_partitions, const OptimizerConfig& cfg) {
  return optimize(p, message_bytes, user_partitions, cfg,
                  &completion_time_with_drain);
}

}  // namespace partib::model
