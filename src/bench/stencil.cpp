#include "bench/stencil.hpp"

#include <algorithm>
#include <memory>

#include "bench/rig.hpp"
#include "common/assert.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"

namespace partib::bench {

namespace {

struct RankState {
  std::vector<std::unique_ptr<part::PsendRequest>> sends;
  std::vector<std::unique_ptr<part::PrecvRequest>> recvs;
  sim::Rng rng;
  int iter = 0;  ///< completed iterations
  std::size_t pending = 0;  ///< channels outstanding this iteration
  std::size_t recvs_pending = 0;
  std::size_t threads_done = 0;
  bool compute_done = false;
  /// Virtual time at which this rank completed the warmup iterations.
  Time warmup_done_at = -1;
};

struct StencilRun {
  const SweepConfig& cfg;
  const Stencil& stencil;
  Rig& rig;
  std::vector<RankState> ranks;
  std::size_t finished = 0;

  void begin_iteration(std::size_t r) {
    RankState& rs = ranks[r];
    rs.pending = rs.sends.size() + rs.recvs.size();
    rs.recvs_pending = rs.recvs.size();
    rs.threads_done = 0;
    rs.compute_done = false;
    for (auto& recv : rs.recvs) {
      PARTIB_ASSERT(ok(recv->start()));
      recv->when_complete([this, r] {
        RankState& s = ranks[r];
        if (--s.recvs_pending == 0 && stencil.compute_waits_for_recvs) {
          start_compute(r);
        }
        channel_done(r);
      });
    }
    for (auto& send : rs.sends) {
      PARTIB_ASSERT(ok(send->start()));
      send->when_complete([this, r] { channel_done(r); });
    }
    if (!stencil.compute_waits_for_recvs || rs.recvs.empty()) {
      start_compute(r);
    }
  }

  void start_compute(std::size_t r) {
    RankState& rs = ranks[r];
    const std::size_t n = cfg.threads;
    const auto laggard = static_cast<std::size_t>(
        rs.rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    sim::ArrivalPattern pattern =
        sim::many_before_one(n, cfg.compute, cfg.noise, laggard);
    const Duration span =
        cfg.jitter_per_thread * static_cast<Duration>(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i != laggard) {
        pattern[i] += static_cast<Duration>(
            rs.rng.uniform(0.0, static_cast<double>(span)));
      }
    }
    mpi::Rank& mr = rig.rank(static_cast<int>(r));
    for (std::size_t i = 0; i < n; ++i) {
      mr.cpu().submit(pattern[i], [this, r, i] {
        RankState& s = ranks[r];
        for (auto& send : s.sends) PARTIB_ASSERT(ok(send->pready(i)));
        if (++s.threads_done == cfg.threads) {
          s.compute_done = true;
          maybe_finish(r);
        }
      });
    }
  }

  void channel_done(std::size_t r) {
    RankState& rs = ranks[r];
    PARTIB_ASSERT(rs.pending > 0);
    if (--rs.pending == 0) maybe_finish(r);
  }

  void maybe_finish(std::size_t r) {
    RankState& rs = ranks[r];
    if (!rs.compute_done || rs.pending != 0) return;
    ++rs.iter;
    if (rs.iter == cfg.warmup) rs.warmup_done_at = rig.engine().now();
    if (rs.iter < cfg.warmup + cfg.iterations) {
      begin_iteration(r);
    } else {
      ++finished;
    }
  }
};

}  // namespace

SweepResult run_stencil(const SweepConfig& cfg, const Stencil& stencil) {
  PARTIB_ASSERT(cfg.px >= 1 && cfg.py >= 1 && cfg.message_bytes > 0);
  Rig rig(cfg.world, cfg.px * cfg.py);
  const auto ranks = static_cast<std::size_t>(cfg.px * cfg.py);
  StencilRun run{cfg, stencil, rig, std::vector<RankState>(ranks)};
  // Nothing reads the payload, so every channel shares one buffer (MRs
  // may overlap; only the timeline matters here).
  const std::span<std::byte> buffer = rig.payload(cfg.message_bytes);
  for (int y = 0; y < cfg.py; ++y) {
    for (int x = 0; x < cfg.px; ++x) {
      const int id = y * cfg.px + x;
      RankState& rs = run.ranks[static_cast<std::size_t>(id)];
      rs.rng = sim::Rng(cfg.seed ^
                        (static_cast<std::uint64_t>(id) * stencil.rng_salt));
      for (const StencilLink& l : stencil.links(x, y, cfg.px, cfg.py)) {
        if (l.send) {
          rs.sends.push_back(rig.psend(id, buffer, cfg.threads, l.peer,
                                       l.tag, cfg.options));
        } else {
          rs.recvs.push_back(rig.precv(id, buffer, cfg.threads, l.peer,
                                       l.tag, cfg.options));
        }
      }
    }
  }
  rig.settle();  // every handshake, before timing

  for (std::size_t r = 0; r < ranks; ++r) run.begin_iteration(r);
  rig.engine().run();
  PARTIB_ASSERT(run.finished == ranks);

  Time warmup_done = 0;
  for (const RankState& rs : run.ranks) {
    PARTIB_ASSERT(rs.warmup_done_at >= 0 || cfg.warmup == 0);
    warmup_done = std::max(warmup_done, rs.warmup_done_at);
  }

  SweepResult res;
  res.total_time = rig.engine().now() - warmup_done;
  // The paper subtracts "the computation time listed in each subfigure
  // caption" — the nominal compute only.  The noise-induced laggard delay
  // deliberately stays inside the communication time, which is why large
  // noise (400 us) dilutes every design's speedup in Fig 14c.
  res.compute_on_path = static_cast<Duration>(cfg.iterations) * cfg.compute;
  res.comm_time = res.total_time - res.compute_on_path;
  return res;
}

}  // namespace partib::bench
