#include "bench/halo.hpp"

#include "bench/stencil.hpp"

namespace partib::bench {

namespace {

/// Per in-grid direction d, a send tagged d and the receive of the
/// neighbour's send toward us, tagged with the opposite direction d ^ 1.
std::vector<StencilLink> halo_links(int x, int y, int px, int py) {
  static constexpr int kDirs[4][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  std::vector<StencilLink> links;
  for (int d = 0; d < 4; ++d) {
    const int nx = x + kDirs[d][0];
    const int ny = y + kDirs[d][1];
    if (nx < 0 || nx >= px || ny < 0 || ny >= py) continue;
    links.push_back({true, ny * px + nx, d});
    links.push_back({false, ny * px + nx, d ^ 1});
  }
  return links;
}

}  // namespace

HaloResult run_halo(HaloConfig cfg) {
  const SweepConfig grid{.px = cfg.px,
                         .py = cfg.py,
                         .threads = cfg.threads,
                         .message_bytes = cfg.face_bytes,
                         .options = cfg.options,
                         .compute = cfg.compute,
                         .noise = cfg.noise,
                         .jitter_per_thread = cfg.jitter_per_thread,
                         .iterations = cfg.iterations,
                         .warmup = cfg.warmup,
                         .seed = cfg.seed,
                         .world = cfg.world};
  return run_stencil(grid, {.rng_salt = 0x517CC1B7u,
                            .compute_waits_for_recvs = false,
                            .links = halo_links});
}

}  // namespace partib::bench
