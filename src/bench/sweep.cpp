#include "bench/sweep.hpp"

#include "bench/stencil.hpp"

namespace partib::bench {

namespace {

constexpr int kTagEast = 0;   // west -> east traffic
constexpr int kTagSouth = 1;  // north -> south traffic

/// Send east and south, receive from west and north: the wavefront runs
/// from the (0,0) corner.
std::vector<StencilLink> wavefront_links(int x, int y, int px, int py) {
  const auto id = [px](int cx, int cy) { return cy * px + cx; };
  std::vector<StencilLink> links;
  if (x + 1 < px) links.push_back({true, id(x + 1, y), kTagEast});
  if (y + 1 < py) links.push_back({true, id(x, y + 1), kTagSouth});
  if (x > 0) links.push_back({false, id(x - 1, y), kTagEast});
  if (y > 0) links.push_back({false, id(x, y - 1), kTagSouth});
  return links;
}

}  // namespace

SweepResult run_sweep(SweepConfig cfg) {
  return run_stencil(cfg, {.rng_salt = 0x9E37u,
                           .compute_waits_for_recvs = true,
                           .links = wavefront_links});
}

}  // namespace partib::bench
