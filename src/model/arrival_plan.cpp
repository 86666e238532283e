#include "model/arrival_plan.hpp"

#include <algorithm>
#include <cstdint>

#include "common/assert.hpp"
#include "common/thread_annotations.hpp"
#include "model/ploggp.hpp"

namespace partib::model {

namespace {

Duration clamp_duration(Duration v, Duration lo, Duration hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Power-of-two search over completion_time_with_drain for `parts`
/// partitions of `bytes` total bytes arriving over `spread`.  Unlike
/// optimal_transport_partitions_with_drain this does not require `parts`
/// to be a power of two — learned clusters rarely are.  Ties resolve to
/// the smaller count, matching the optimizer's convention.
std::size_t drain_aware_split(const LogGPParams& p, std::size_t bytes,
                              std::size_t parts, Duration spread,
                              std::size_t cap) {
  std::size_t best = 1;
  Duration best_time = 0;
  for (std::size_t m = 1; m <= cap && m <= parts && m <= bytes; m *= 2) {
    const Duration t =
        completion_time_with_drain(p, PLogGPQuery{bytes, m, spread});
    if (m == 1 || t < best_time) {
      best = m;
      best_time = t;
    }
  }
  return best;
}

/// Lay `parts` partitions starting at `base` out as `groups` contiguous
/// near-equal groups, appending to group_first/group_count at `out`.
std::size_t emit_even_groups(std::size_t base, std::size_t parts,
                             std::size_t groups, std::size_t* group_first,
                             std::size_t* group_count, std::size_t out) {
  const std::size_t lo = parts / groups;
  const std::size_t rem = parts % groups;
  std::size_t first = base;
  for (std::size_t i = 0; i < groups; ++i) {
    const std::size_t cnt = lo + (i < rem ? 1 : 0);
    group_first[out] = first;
    group_count[out] = cnt;
    ++out;
    first += cnt;
  }
  return out;
}

}  // namespace

void ArrivalPlanScratch::reserve(std::size_t partitions) {
  capacity = partitions;
  cuts.assign(partitions, 0);
  quant.assign(partitions, 0);
  // Worst-case posted messages in predict: one bulk message per group plus
  // every partition posting individually as a straggler.
  post_time.assign(2 * partitions, 0);
  post_bytes.assign(2 * partitions, 0);
  post_order.assign(2 * partitions, 0);
}

PARTIB_HOT Duration predict_grouped_completion(
    const LogGPParams& p, std::size_t partition_bytes, const Duration* arrival,
    const std::size_t* group_first, const std::size_t* group_count,
    std::size_t groups, Duration delta, ArrivalPlanScratch& scratch) {
  PARTIB_ASSERT(groups >= 1);
  std::size_t posts = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t first = group_first[g];
    const std::size_t cnt = group_count[g];
    PARTIB_ASSERT(cnt >= 1);
    PARTIB_ASSERT(first + cnt <= scratch.capacity);
    Duration a_min = arrival[first];
    Duration a_max = arrival[first];
    for (std::size_t i = 1; i < cnt; ++i) {
      a_min = std::min(a_min, arrival[first + i]);
      a_max = std::max(a_max, arrival[first + i]);
    }
    if (a_max - a_min <= delta) {
      // Whole group completes inside the timer window: one aggregated
      // message when the last partition arrives.
      scratch.post_time[posts] = a_max;
      scratch.post_bytes[posts] = cnt * partition_bytes;
      ++posts;
      continue;
    }
    // Window closes at a_min + delta: everything arrived by then goes out
    // as one aggregate.  A straggler is flushed one timer window after it
    // arrives — not instantly — unless the group completes first, at
    // which point everything still pending goes out (a_max caps the post
    // time).  Modelling that lag is what lets the planner see the
    // difference between a straggler sharing a group with the last
    // arrival (their runs coalesce into one larger tail message) and a
    // boundary that isolates the last arrival (its predecessor drains
    // earlier, shrinking the tail).  The runtime coalesces contiguous
    // straggler runs; singletons are pessimistic for incumbent and
    // candidate alike.
    const Duration close = a_min + delta;
    std::size_t covered = 0;
    for (std::size_t i = 0; i < cnt; ++i) {
      if (arrival[first + i] <= close) {
        ++covered;
      } else {
        scratch.post_time[posts] =
            std::min(arrival[first + i] + delta, a_max);
        scratch.post_bytes[posts] = partition_bytes;
        ++posts;
      }
    }
    PARTIB_ASSERT(covered >= 1);
    scratch.post_time[posts] = close;
    scratch.post_bytes[posts] = covered * partition_bytes;
    ++posts;
  }
  PARTIB_ASSERT(posts <= scratch.post_time.size());

  // Drain the posts through a single serial wire in time order.  Sort an
  // index permutation so equal post times break deterministically by
  // emission order.
  for (std::size_t i = 0; i < posts; ++i) {
    scratch.post_order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(scratch.post_order.begin(),
            scratch.post_order.begin() + static_cast<std::ptrdiff_t>(posts),
            [&scratch](std::uint32_t a, std::uint32_t b) {
              if (scratch.post_time[a] != scratch.post_time[b]) {
                return scratch.post_time[a] < scratch.post_time[b];
              }
              return a < b;
            });
  Duration wire_free = 0;
  Duration last_end = 0;
  for (std::size_t i = 0; i < posts; ++i) {
    const std::uint32_t idx = scratch.post_order[i];
    const Duration start =
        std::max(scratch.post_time[idx] + p.o_s, wire_free);
    const Duration end = start + p.wire_time(scratch.post_bytes[idx]);
    wire_free = end + p.per_message_cost();
    last_end = std::max(last_end, end);
  }
  return last_end + p.L + p.o_r;
}

PARTIB_HOT ArrivalPlanResult plan_from_arrivals(
    const LogGPParams& p, std::size_t total_bytes, const Duration* arrival,
    std::size_t n, const ArrivalLearnConfig& cfg, std::size_t* group_first,
    std::size_t* group_count, ArrivalPlanScratch& scratch) {
  PARTIB_ASSERT(n >= 1);
  PARTIB_ASSERT(total_bytes >= n);
  PARTIB_ASSERT(scratch.capacity >= n);
  const std::size_t cap =
      std::max<std::size_t>(1, std::min(cfg.max_groups, n));
  const std::size_t partition_bytes = total_bytes / n;

  // Step 1: quantize onto the learning grid.  Every decision below is a
  // function of these grid values, so sub-quantum timestamp noise (e.g.
  // threaded-producer scheduling jitter) cannot change the plan.
  for (std::size_t i = 0; i < n; ++i) {
    scratch.quant[i] = quantize_arrival(arrival[i], cfg.quantum);
  }
  Duration q_min = scratch.quant[0];
  Duration q_max = scratch.quant[0];
  for (std::size_t i = 1; i < n; ++i) {
    q_min = std::min(q_min, scratch.quant[i]);
    q_max = std::max(q_max, scratch.quant[i]);
  }
  const Duration spread = q_max - q_min;

  // Step 2: boundary cuts at significant index-adjacent arrival jumps.
  // The threshold deliberately exceeds the mean adjacent gap (2*spread/n)
  // so a smooth ramp — where every gap ties — yields *no* cuts and the
  // uniform candidates below compete on prediction, not arbitrary ties.
  const Duration significant = std::max<Duration>(
      cfg.quantum, 2 * spread / static_cast<Duration>(n));
  std::size_t n_cuts = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const Duration gap = scratch.quant[i] >= scratch.quant[i - 1]
                             ? scratch.quant[i] - scratch.quant[i - 1]
                             : scratch.quant[i - 1] - scratch.quant[i];
    if (gap >= significant) {
      scratch.cuts[n_cuts++] = static_cast<std::uint32_t>(i);
    }
  }
  if (n_cuts > cap - 1) {
    // Keep only the largest jumps; ties break toward the lower index so
    // the selection is a pure function of the quantized profile.
    auto gap_at = [&scratch](std::uint32_t b) {
      const Duration d = scratch.quant[b] - scratch.quant[b - 1];
      return d >= 0 ? d : -d;
    };
    std::sort(scratch.cuts.begin(),
              scratch.cuts.begin() + static_cast<std::ptrdiff_t>(n_cuts),
              [&gap_at](std::uint32_t a, std::uint32_t b) {
                const Duration ga = gap_at(a);
                const Duration gb = gap_at(b);
                if (ga != gb) return ga > gb;
                return a < b;
              });
    n_cuts = cap - 1;
    std::sort(scratch.cuts.begin(),
              scratch.cuts.begin() + static_cast<std::ptrdiff_t>(n_cuts));
  }

  // Step 3: candidate layouts, each scored with the same predictor the
  // sender's hysteresis check uses (predict_grouped_completion), so the
  // planner's choice, the adopt/keep comparison, and the returned
  // prediction are all one model.  Delta for every candidate is the worst
  // intra-group quantized spread plus one quantum — the smallest window
  // that still lets each group aggregate fully when the arrivals repeat.
  const auto layout_delta = [&scratch, &cfg](const std::size_t* gf,
                                             const std::size_t* gc,
                                             std::size_t groups) {
    Duration worst_spread = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t f = gf[g];
      const std::size_t cnt = gc[g];
      Duration g_min = scratch.quant[f];
      Duration g_max = scratch.quant[f];
      for (std::size_t i = 1; i < cnt; ++i) {
        g_min = std::min(g_min, scratch.quant[f + i]);
        g_max = std::max(g_max, scratch.quant[f + i]);
      }
      worst_spread = std::max(worst_spread, g_max - g_min);
    }
    return clamp_duration(worst_spread + cfg.quantum, cfg.delta_min,
                          cfg.delta_max);
  };

  // Uniform power-of-two candidates first.  Ascending order + strict
  // improvement means ties resolve to fewer groups (fewer WRs), matching
  // the optimizer's convention.
  std::size_t best_uniform = 1;
  ArrivalPlanResult best;
  best.groups = 0;
  best.predicted = 0;
  for (std::size_t m = 1; m <= cap && m <= n; m *= 2) {
    const std::size_t groups =
        emit_even_groups(0, n, m, group_first, group_count, 0);
    const Duration delta = layout_delta(group_first, group_count, groups);
    const Duration predicted =
        predict_grouped_completion(p, partition_bytes, arrival, group_first,
                                   group_count, groups, delta, scratch);
    if (best.groups == 0 || predicted < best.predicted) {
      best_uniform = m;
      best.groups = groups;
      best.delta = delta;
      best.predicted = predicted;
    }
  }

  // The clustered candidate: group boundaries at the cuts, each arrival
  // cluster sub-split drain-aware so large clusters still pipeline.  The
  // per-cluster budget keeps the total within cap.
  if (n_cuts > 0) {
    const std::size_t clusters = n_cuts + 1;
    const std::size_t per_cluster_cap =
        std::max<std::size_t>(1, cap / clusters);
    std::size_t groups = 0;
    std::size_t first = 0;
    for (std::size_t c = 0; c <= n_cuts; ++c) {
      const std::size_t next = c < n_cuts ? scratch.cuts[c] : n;
      const std::size_t cnt = next - first;
      PARTIB_ASSERT(cnt >= 1);
      Duration c_min = scratch.quant[first];
      Duration c_max = scratch.quant[first];
      for (std::size_t i = 1; i < cnt; ++i) {
        c_min = std::min(c_min, scratch.quant[first + i]);
        c_max = std::max(c_max, scratch.quant[first + i]);
      }
      const std::size_t m = drain_aware_split(
          p, cnt * partition_bytes, cnt, c_max - c_min, per_cluster_cap);
      groups = emit_even_groups(first, cnt, m, group_first, group_count,
                                groups);
      first = next;
    }
    PARTIB_ASSERT(groups >= 1 && groups <= cap);
    const Duration delta = layout_delta(group_first, group_count, groups);
    const Duration predicted =
        predict_grouped_completion(p, partition_bytes, arrival, group_first,
                                   group_count, groups, delta, scratch);
    if (predicted < best.predicted) {
      // The clustered layout already sits in the output buffers.
      best.groups = groups;
      best.delta = delta;
      best.predicted = predicted;
      return best;
    }
  }

  // A uniform candidate won (or there were no cuts): rebuild it, since the
  // buffers were overwritten by later candidates.
  const std::size_t groups =
      emit_even_groups(0, n, best_uniform, group_first, group_count, 0);
  PARTIB_ASSERT(groups == best.groups);
  return best;
}

}  // namespace partib::model
