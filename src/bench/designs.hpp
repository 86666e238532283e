// Canned part::Options for each aggregation design, shared by the figure
// benches, perfbench, the examples and the tests, so every caller builds a
// design exactly as the figures do.  Header-only: it needs partib_agg,
// not partib_benchlib.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "agg/strategies.hpp"
#include "part/options.hpp"

namespace partib::bench {

inline part::Options options_with(
    std::shared_ptr<const agg::Aggregator> a) {
  part::Options o;
  o.aggregator = std::move(a);
  return o;
}

inline part::Options persistent_options() {
  return options_with(std::make_shared<agg::PersistentBaseline>());
}

inline part::Options static_options(std::size_t tp, int qps) {
  return options_with(std::make_shared<agg::StaticAggregator>(tp, qps));
}

inline part::Options ploggp_options(
    const model::LogGPParams& params =
        model::LogGPParams::niagara_mpi_measured()) {
  return options_with(std::make_shared<agg::PLogGPAggregator>(params));
}

inline part::Options timer_options(
    Duration delta, const model::LogGPParams& params =
                        model::LogGPParams::niagara_mpi_measured()) {
  return options_with(
      std::make_shared<agg::TimerPLogGPAggregator>(params, delta));
}

inline part::Options tuning_table_options() {
  return options_with(std::make_shared<agg::TuningTableAggregator>(
      agg::TuningTable::niagara_prebuilt()));
}

inline part::Options learning_options(
    const model::LogGPParams& params, Duration delta0 = msec(4),
    model::ArrivalLearnConfig cfg = {}) {
  return options_with(std::make_shared<agg::ArrivalLearningAggregator>(
      params, delta0, cfg));
}

/// The zoo's oracle arm: a learning channel whose profile the harness
/// re-seeds with ground truth each epoch, planning greedily on it
/// (alpha = 1 — trust the seed fully; epsilon = 0 — no hysteresis).
inline part::Options oracle_options(const model::LogGPParams& params,
                                    Duration delta0 = msec(4)) {
  model::ArrivalLearnConfig cfg;
  cfg.ewma_alpha = 1.0;
  cfg.hysteresis_epsilon = 0.0;
  return learning_options(params, delta0, cfg);
}

}  // namespace partib::bench
