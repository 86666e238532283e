// Figs 10 & 11: profiling the user-partition arrival pattern of the
// perceived-bandwidth benchmark (32 partitions, 100 ms compute, 4% noise,
// single-thread-delay), at 8 MiB (Fig 10) and 128 MiB (Fig 11).
//
// For each partition the harness prints the Pready time relative to round
// start, the actual arrival time at the receiver, and the estimated
// communication time from the paper's bandwidth equation
// (partition size / theoretical bandwidth).
//
// Paper shape: at 8 MiB all n-1 early partitions complete transfer well
// before the laggard arrives (early-bird window >> delta); at 128 MiB the
// wire is the bottleneck and only ~3/8 of the partitions move early.
#include <string>
#include <utility>
#include <vector>

#include "bench/perceived.hpp"
#include "bench/report.hpp"
#include "bench/trial.hpp"
#include "common/units.hpp"
#include "support/bench_main.hpp"

using namespace partib;

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv);
  constexpr std::size_t kPartitions = 32;
  const std::vector<std::pair<std::size_t, const char*>> points = {
      {8 * MiB, "Fig 10"}, {128 * MiB, "Fig 11"}};

  std::vector<bench::PerceivedConfig> grid;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bench::PerceivedConfig cfg;
    cfg.total_bytes = points[i].first;
    cfg.user_partitions = kPartitions;
    cfg.options = bench::ploggp_options();
    cfg.iterations = 1;
    cfg.warmup = 1;
    grid.push_back(cfg);
  }
  const std::vector<bench::PerceivedResult> results =
      bench::run_perceived_grid(grid, cli.run_options());

  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t bytes = points[i].first;
    const bench::PerceivedResult& r = results[i];
    const double wire = r.wire_gbytes_per_s;  // bytes per ns
    const Duration est_comm =
        bench::estimated_comm_time(bytes / kPartitions, wire);

    bench::Table table(
        std::string(points[i].second) + ": arrival profile, " +
            format_bytes(bytes) + ", 100 ms compute, 4% noise",
        {"partition", "pready_ms", "arrival_ms", "est_comm_ms"});
    for (std::size_t p = 0; p < kPartitions; ++p) {
      table.add_row({std::to_string(p),
                     bench::fmt(to_msec(r.pready_ns[p]), 3),
                     bench::fmt(to_msec(r.arrival_ns[p]), 3),
                     bench::fmt(to_msec(est_comm), 3)});
    }
    cli.emit(table);
  }
  return 0;
}
