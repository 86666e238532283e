// The per-rank iteration runner behind both stencil patterns on a px x py
// grid: the Sweep3D wavefront (sweep.hpp) and the 2D halo exchange
// (halo.hpp).
//
// Every iteration a rank starts its receives and then its sends, each in
// channel order; computes with `threads` workers (single-thread-delay
// noise plus per-thread jitter), each worker marking its partition ready
// on every send as it finishes; and completes the iteration once the
// compute and all of its channels are done.  The patterns differ in their
// channels and in when compute begins: the wavefront waits for the
// rank's receives, the halo begins at once.
#pragma once

#include <cstdint>
#include <vector>

#include "bench/sweep.hpp"

namespace partib::bench {

/// One channel of a rank: which side it is, the neighbour, and the tag
/// both ends use.
struct StencilLink {
  bool send = false;
  int peer = 0;
  int tag = 0;
};

struct Stencil {
  /// Rank `id` draws its noise from Rng(seed ^ (id * rng_salt)).
  std::uint64_t rng_salt = 0;
  /// Compute begins only once the iteration's receives have completed.
  bool compute_waits_for_recvs = false;
  /// The channels of rank (x, y) on a px x py grid, in init order.
  std::vector<StencilLink> (*links)(int x, int y, int px, int py) = nullptr;
};

/// Run `cfg` (message_bytes per channel) under `stencil`.
SweepResult run_stencil(const SweepConfig& cfg, const Stencil& stencil);

}  // namespace partib::bench
