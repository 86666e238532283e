// Fig 12: estimated minimum delta value for the Timer-based PLogGP
// aggregator: the spread between the first and last non-laggard Pready,
// averaged over rounds, per message size and partition count.
//
// Rows where the PLogGP plan requests no aggregation (one user partition
// per transport partition) are blank, matching the missing points in the
// paper's figure.  Paper shape: min-delta grows with the partition count;
// ~35 us at 32 partitions.
#include <string>
#include <vector>

#include "agg/strategies.hpp"
#include "bench/perceived.hpp"
#include "bench/report.hpp"
#include "bench/trial.hpp"
#include "common/units.hpp"
#include "support/bench_main.hpp"

using namespace partib;

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv);
  const std::vector<std::size_t> counts = {4, 8, 16, 32, 64, 128};
  const agg::PLogGPAggregator planner(
      model::LogGPParams::niagara_mpi_measured());

  std::vector<std::string> headers = {"msg_size"};
  for (std::size_t c : counts) headers.push_back("parts" + std::to_string(c) + "_us");
  bench::Table table(
      "Fig 12: estimated minimum delta (us), 100 ms compute, 4% noise",
      headers);

  // Grid of every (size, count) point where the PLogGP plan aggregates.
  std::vector<bench::PerceivedConfig> grid;
  for (std::size_t bytes : pow2_sizes(1 * MiB, 256 * MiB)) {
    for (std::size_t parts : counts) {
      const agg::Plan plan = planner.plan(parts, bytes);
      if (plan.transport_partitions == parts) continue;
      bench::PerceivedConfig cfg;
      cfg.total_bytes = bytes;
      cfg.user_partitions = parts;
      cfg.options = bench::ploggp_options();
      cfg.iterations = cli.iterations(5);
      cfg.warmup = 1;
      grid.push_back(cfg);
    }
  }
  const std::vector<bench::PerceivedResult> results =
      bench::run_perceived_grid(grid, cli.run_options());

  std::size_t k = 0;
  for (std::size_t bytes : pow2_sizes(1 * MiB, 256 * MiB)) {
    std::vector<std::string> row = {format_bytes(bytes)};
    for (std::size_t parts : counts) {
      const agg::Plan plan = planner.plan(parts, bytes);
      if (plan.transport_partitions == parts) {
        // No aggregation requested: a timer would have nothing to group.
        row.push_back("-");
        continue;
      }
      row.push_back(bench::fmt(to_usec(results[k++].mean_min_delta), 1));
    }
    table.add_row(std::move(row));
  }
  cli.emit(table);
  return 0;
}
