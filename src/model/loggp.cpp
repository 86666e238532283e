#include "model/loggp.hpp"

#include <algorithm>

namespace partib::model {

Duration LogGPParams::per_message_cost() const {
  return std::max({g, o_s, o_r});
}

Duration LogGPParams::wire_time(std::size_t bytes) const {
  return static_cast<Duration>(G * static_cast<double>(bytes));
}

LogGPParams LogGPParams::niagara_mpi_measured() {
  // EDR InfiniBand is 100 Gb/s; an MPI-level effective bandwidth of
  // ~12.5 GB/s gives G = 0.08 ns/B.  The gap is the MPI-transport value
  // (per-message software cost included), which is what Netgauge's MPI
  // module reports — an order of magnitude above the raw verbs gap.
  LogGPParams p;
  p.L = nsec(2'500);
  p.o_s = nsec(1'200);
  p.o_r = nsec(1'500);
  p.g = nsec(15'600);
  p.G = 0.08;
  return p;
}

}  // namespace partib::model
