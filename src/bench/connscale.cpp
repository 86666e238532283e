#include "bench/connscale.hpp"

#include <vector>

#include "bench/rig.hpp"
#include "mpi/conn.hpp"
#include "verbs/verbs.hpp"

namespace partib::bench {

ConnScaleResult run_connscale(const ConnScaleConfig& cfg) {
  Rig rig(cfg.world, cfg.alltoall ? cfg.peers : cfg.peers + 1);
  sim::Engine& engine = rig.engine();

  std::vector<Channel> channels;
  auto add_channel = [&](int src, int dst, int tag) {
    channels.push_back(rig.channel(src, dst, tag, cfg.bytes,
                                   cfg.user_partitions, cfg.options));
  };
  if (cfg.alltoall) {
    for (int i = 0; i < cfg.peers; ++i) {
      for (int j = 0; j < cfg.peers; ++j) {
        if (i != j) add_channel(i, j, /*tag=*/j);
      }
    }
  } else {
    for (int p = 0; p < cfg.peers; ++p) add_channel(p + 1, 0, /*tag=*/p);
  }
  rig.settle();  // all handshakes

  Duration total = 0;
  for (int round = 1; round <= cfg.rounds; ++round) {
    const Time t0 = engine.now();
    for (Channel& c : channels) {
      PARTIB_ASSERT(ok(c.send->start()));
      PARTIB_ASSERT(ok(c.recv->start()));
    }
    for (Channel& c : channels) {
      for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
        PARTIB_ASSERT(ok(c.send->pready(i)));
      }
    }
    engine.run();
    for (Channel& c : channels) {
      PARTIB_ASSERT(c.send->test() && c.recv->test());
    }
    total += engine.now() - t0;
  }

  ConnScaleResult r;
  r.mean_round = total / std::max(cfg.rounds, 1);
  mpi::Rank& hot = rig.rank(0);
  const verbs::ResourceFootprint fp = hot.context().footprint();
  r.hot_qps = fp.qps;
  r.hot_cqs = fp.cqs;
  r.hot_srqs = fp.srqs;
  r.hot_provisioned_bytes = fp.provisioned_bytes;
  r.hot_resident_bytes = fp.resident_bytes;
  if (hot.has_connections()) {
    const mpi::ConnectionManager& mgr = hot.connections();
    r.establishments = mgr.total_establishments();
    r.recycles = mgr.total_recycles();
  }
  return r;
}

}  // namespace partib::bench
