// Sweep3D wavefront (the paper's application-like pattern, §V-D) on an
// 8x8 rank grid with 16 threads per rank — the paper's 1024-core setup —
// comparing all three designs plus the persistent baseline in one run.
#include <cstdio>

#include "bench/designs.hpp"
#include "bench/sweep.hpp"
#include "common/units.hpp"

using namespace partib;

int main() {
  struct DesignRow {
    const char* name;
    part::Options options;
  };
  const DesignRow designs[] = {
      {"persistent (part_persist/UCX)", bench::persistent_options()},
      {"PLogGP aggregator", bench::ploggp_options()},
      {"Timer-based PLogGP (d=35us)", bench::timer_options(usec(35))},
  };

  std::printf("Sweep3D, 8x8 ranks x 16 threads, 1 MiB faces, 1 ms compute, "
              "4%% noise\n\n");
  Duration baseline = 0;
  for (const DesignRow& d : designs) {
    bench::SweepConfig cfg;
    cfg.message_bytes = 1 * MiB;
    cfg.options = d.options;
    cfg.compute = msec(1);
    cfg.noise = 0.04;
    cfg.iterations = 5;
    cfg.warmup = 2;
    const auto r = bench::run_sweep(cfg);
    if (baseline == 0) baseline = r.comm_time;
    std::printf("%-32s comm time %-12s speedup %.2fx\n", d.name,
                format_duration(r.comm_time).c_str(),
                static_cast<double>(baseline) /
                    static_cast<double>(r.comm_time));
  }
  return 0;
}
