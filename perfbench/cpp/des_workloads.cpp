// The three DES workloads: incast, zoo and sweep.
//
// Each runs a figure bench's grid two ways.  The timed pass calls the
// public trial form (bench::*_trial) through runner::run_trials with one
// job and no cache, exactly as the figure benches do.  The replay re-runs
// every config in this file through public calls only, so spans can be
// placed around each call into the library; its simulated result must
// equal the trial form's bit for bit, which proves the spans measured the
// same work.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/trial.hpp"
#include "fabric/trace.hpp"
#include "layers.hpp"
#include "mpi/conn.hpp"
#include "part/partitioned.hpp"
#include "perfbench.hpp"
#include "runner/fingerprint.hpp"
#include "runner/runner.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"
#include "support/bench_main.hpp"
#include "tracer.hpp"

namespace perfbench {

using namespace partib;

namespace {

// -- per-config instrumentation ------------------------------------------------

/// Wire occupancy read from the fabric's TraceSink after a traced config:
/// at every wire start or end, the number of ops on the wire (the new or
/// finishing op included) — what one water-filling round has to visit.
struct WireStats {
  std::uint64_t flow_rounds = 0;
  std::uint64_t peak = 0;
  double area_ns = 0;  ///< ∫ ops-on-wire dt
  double busy_ns = 0;  ///< time with at least one op on the wire

  void add(const fabric::TraceSink& sink) {
    std::vector<std::pair<Time, int>> edges;
    edges.reserve(2 * sink.size());
    for (const fabric::TraceRecord& r : sink.records()) {
      if (r.wire_start < 0 || r.wire_end < 0) continue;
      edges.emplace_back(r.wire_start, +1);
      edges.emplace_back(r.wire_end, -1);
    }
    // Ends sort before starts at one instant: back-to-back ops on one link
    // are never both on the wire.
    std::sort(edges.begin(), edges.end());
    std::uint64_t on_wire = 0;
    Time last = 0;
    for (const auto& [t, step] : edges) {
      if (on_wire > 0) {
        area_ns += static_cast<double>(on_wire) * static_cast<double>(t - last);
        busy_ns += static_cast<double>(t - last);
      }
      last = t;
      if (step > 0) {
        ++on_wire;
        flow_rounds += on_wire;
        peak = std::max(peak, on_wire);
      } else {
        flow_rounds += on_wire;
        --on_wire;
      }
    }
  }
};

/// Everything a replay of one config contributes, plus the shared tracer.
struct Ctx {
  Tracer& tracer;
  Counts& counts;
  WireStats& wire;
  std::int64_t request = 0;
  std::int64_t setup_ns = 0;  ///< out: World ctor + channel init + handshake
};

[[noreturn]] void replay_error(const char* what, Status s) {
  throw std::runtime_error(std::string(what) + ": " + to_string(s));
}

void expect(bool cond, const char* what) {
  if (!cond) throw std::runtime_error(what);
}

/// One config's engine and world, with the benchmark's spans around the
/// calls every replay makes.  Declare channels after this object so they
/// are destroyed before the world.
class Replay {
 public:
  Replay(Ctx& ctx, const mpi::WorldOptions& options) : ctx_(ctx) {
    Tracer& tr = ctx_.tracer;
    config_span_ = tr.open("config", -1, ctx_.request);
    setup_span_ = tr.open("setup", config_span_, ctx_.request);
    t0_ = host_ns();
    world_ = tr.call(Tracer::kWorldCtor, [&] {
      return std::make_unique<mpi::World>(engine_, options);
    });
    if (tr.on()) {
      world_->fab().set_trace(&sink_);
      tr.observe(engine_);
    }
  }

  ~Replay() {
    ctx_.tracer.close(measure_span_);
    ctx_.tracer.close(config_span_);
  }

  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  sim::Engine& engine() { return engine_; }
  mpi::World& world() { return *world_; }

  void psend_init(int src, std::span<std::byte> buf, std::size_t parts,
                  int dst, int tag, const part::Options& opts,
                  std::unique_ptr<part::PsendRequest>* out) {
    const Status s = ctx_.tracer.call(Tracer::kPartInit, [&] {
      return part::psend_init(world_->rank(src), buf, parts, dst, tag, 0,
                              opts, out);
    });
    if (!ok(s)) replay_error("psend_init", s);
  }

  void precv_init(int dst, std::span<std::byte> buf, std::size_t parts,
                  int src, int tag, const part::Options& opts,
                  std::unique_ptr<part::PrecvRequest>* out) {
    const Status s = ctx_.tracer.call(Tracer::kPartInit, [&] {
      return part::precv_init(world_->rank(dst), buf, parts, src, tag, 0,
                              opts, out);
    });
    if (!ok(s)) replay_error("precv_init", s);
  }

  /// Run every handshake; closes the setup phase.
  void handshake() {
    ctx_.tracer.run(engine_);
    ctx_.counts.handshake_events += engine_.processed_count();
    ctx_.setup_ns = host_ns() - t0_;
    ctx_.tracer.close(setup_span_);
    measure_span_ = ctx_.tracer.open("measure", config_span_, ctx_.request);
  }

  template <typename Request>
  void start(Request& req) {
    ++ctx_.counts.start_calls;
    const Status s =
        ctx_.tracer.call(Tracer::kPartStart, [&] { return req.start(); });
    if (!ok(s)) replay_error("start", s);
  }

  void pready(part::PsendRequest& req, std::size_t i) {
    ++ctx_.counts.pready_calls;
    const Status s =
        ctx_.tracer.call(Tracer::kPartPready, [&] { return req.pready(i); });
    if (!ok(s)) replay_error("pready", s);
  }

  void run() { ctx_.tracer.run(engine_); }

  /// Fold the finished config's counters into the run totals.
  void finish(std::uint64_t wrs_posted, std::uint64_t replans) {
    Counts& c = ctx_.counts;
    c.sim_events += engine_.processed_count();
    const fabric::FabricStats& st = world_->fab().stats();
    c.rdma_ops += st.rdma_ops;
    c.wire_bytes += st.wire_bytes;
    c.payload_bytes += st.payload_bytes;
    c.control_msgs += st.control_msgs;
    c.wrs_posted += wrs_posted;
    c.replans += replans;
    const verbs::ResourceFootprint fp = world_->rank(0).context().footprint();
    c.hot_qps = std::max<std::int64_t>(c.hot_qps, fp.qps);
    c.hot_provisioned_bytes =
        std::max<std::uint64_t>(c.hot_provisioned_bytes, fp.provisioned_bytes);
    if (world_->rank(0).has_connections()) {
      const mpi::ConnectionManager& mgr = world_->rank(0).connections();
      c.establishments += mgr.total_establishments();
      c.recycles += mgr.total_recycles();
    }
    ctx_.wire.add(sink_);
  }

 private:
  Ctx& ctx_;
  sim::Engine engine_;
  fabric::TraceSink sink_;
  std::unique_ptr<mpi::World> world_;
  std::int64_t t0_ = 0;
  int config_span_ = -1;
  int setup_span_ = -1;
  int measure_span_ = -1;
};

/// Payload buffer that is never read: every DES workload runs with
/// copy_data = false, so the replay skips the zero-fill.
std::unique_ptr<std::byte[]> unread_buffer(std::size_t n) {
  return std::make_unique_for_overwrite<std::byte[]>(n);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// -- incast: bench_incast ------------------------------------------------------

struct Incast {
  using Config = bench::ConnScaleConfig;
  using Result = bench::ConnScaleResult;
  static constexpr const char* kName = "incast";
  static constexpr const char* kSimMetric = "sim_round_us";
  /// bench_incast's 4096-peer shared-mode round (its CSV prints 5589.21).
  static constexpr double kPinned = 0x1.5d53645a1cac1p+12;

  static std::vector<Config> grid(const Args& args) {
    std::vector<Config> grid;
    const std::vector<int> peers =
        args.tiny ? std::vector<int>{16, 64} : std::vector<int>{64, 256, 1024, 4096};
    for (int p : peers) {
      Config base;
      base.peers = p;
      base.bytes = 16 * KiB;
      base.user_partitions = 8;
      base.rounds = 2;
      base.options = bench::static_options(/*tp=*/4, /*qps=*/1);
      base.world.copy_data = false;
      base.seed = args.seed;
      grid.push_back(base);
      Config shared_cfg = base;
      shared_cfg.options.shared_resources = true;
      grid.push_back(shared_cfg);
    }
    return grid;
  }

  static Result trial(const Config& c) { return bench::connscale_trial(c); }
  static std::uint64_t fingerprint(const Config& c) {
    return bench::fingerprint(c);
  }
  static runner::Codec<Result> codec() { return bench::connscale_codec(); }

  static bool same(const Result& a, const Result& b) {
    return a.mean_round == b.mean_round && a.hot_qps == b.hot_qps &&
           a.hot_cqs == b.hot_cqs && a.hot_srqs == b.hot_srqs &&
           a.hot_provisioned_bytes == b.hot_provisioned_bytes &&
           a.hot_resident_bytes == b.hot_resident_bytes &&
           a.establishments == b.establishments && a.recycles == b.recycles;
  }

  /// Mean round of the largest shared-mode config, in simulated µs.
  static double sim_metric(const std::vector<Config>&,
                           const std::vector<Result>& results) {
    return static_cast<double>(results.back().mean_round) / 1000.0;
  }

  static Result replay(const Config& cfg, Ctx& ctx, bool setup_only) {
    expect(!cfg.alltoall, "the incast replay covers N-to-1 grids only");
    mpi::WorldOptions w = cfg.world;
    w.ranks = cfg.peers + 1;
    Replay rp(ctx, w);
    struct Channel {
      std::unique_ptr<std::byte[]> sbuf;
      std::unique_ptr<std::byte[]> rbuf;
      std::unique_ptr<part::PsendRequest> send;
      std::unique_ptr<part::PrecvRequest> recv;
    };
    std::vector<Channel> channels(static_cast<std::size_t>(cfg.peers));
    for (int p = 0; p < cfg.peers; ++p) {
      Channel& c = channels[static_cast<std::size_t>(p)];
      c.sbuf = unread_buffer(cfg.bytes);
      c.rbuf = unread_buffer(cfg.bytes);
      rp.psend_init(p + 1, {c.sbuf.get(), cfg.bytes}, cfg.user_partitions, 0,
                    p, cfg.options, &c.send);
      rp.precv_init(0, {c.rbuf.get(), cfg.bytes}, cfg.user_partitions, p + 1,
                    p, cfg.options, &c.recv);
    }
    rp.handshake();
    if (setup_only) return {};

    Duration total = 0;
    for (int round = 1; round <= cfg.rounds; ++round) {
      const Time t0 = rp.engine().now();
      for (Channel& c : channels) {
        rp.start(*c.send);
        rp.start(*c.recv);
      }
      for (Channel& c : channels) {
        for (std::size_t i = 0; i < cfg.user_partitions; ++i) {
          rp.pready(*c.send, i);
        }
      }
      rp.run();
      for (Channel& c : channels) {
        expect(c.send->test() && c.recv->test(), "incast round incomplete");
      }
      total += rp.engine().now() - t0;
    }

    Result r;
    r.mean_round = total / std::max(cfg.rounds, 1);
    const verbs::ResourceFootprint fp =
        rp.world().rank(0).context().footprint();
    r.hot_qps = fp.qps;
    r.hot_cqs = fp.cqs;
    r.hot_srqs = fp.srqs;
    r.hot_provisioned_bytes = fp.provisioned_bytes;
    r.hot_resident_bytes = fp.resident_bytes;
    if (rp.world().rank(0).has_connections()) {
      const mpi::ConnectionManager& mgr = rp.world().rank(0).connections();
      r.establishments = mgr.total_establishments();
      r.recycles = mgr.total_recycles();
    }
    std::uint64_t wrs = 0;
    for (const Channel& c : channels) wrs += c.send->wrs_posted_total();
    rp.finish(wrs, 0);
    return r;
  }
};

// -- zoo: bench_workload_zoo ---------------------------------------------------

struct Zoo {
  using Config = bench::ZooConfig;
  using Result = bench::ZooResult;
  static constexpr const char* kName = "zoo";
  static constexpr const char* kSimMetric = "sim_learning_gbps";
  static constexpr std::size_t kStrategies = 5;
  static constexpr std::size_t kLearningArm = 3;
  /// Mean warm learning-arm bandwidth of bench_workload_zoo's six shapes
  /// (its CSV prints 354.533, 354.533, 52.027, 438.586, 107.553, 339.622).
  static constexpr double kPinned = 0x1.1279c5c548e4fp+8;

  static std::vector<Config> grid(const Args& args) {
    const model::LogGPParams params = model::LogGPParams::niagara_mpi_measured();
    const Duration delta0 = msec(4);
    // Strategy order as in bench_workload_zoo; kLearningArm indexes it.
    const part::Options strategies[kStrategies] = {
        bench::tuning_table_options(),
        bench::ploggp_options(params),
        bench::timer_options(delta0, params),
        bench::learning_options(params, delta0),
        bench::oracle_options(params, delta0),
    };
    std::vector<bench::ZooShape> shapes = {
        bench::ZooShape::kUniform,    bench::ZooShape::kReverse,
        bench::ZooShape::kRandomPerm, bench::ZooShape::kBurstyTail,
        bench::ZooShape::kLqcdHalo4d, bench::ZooShape::kRegimeShift,
    };
    if (args.tiny) {
      shapes = {bench::ZooShape::kRandomPerm, bench::ZooShape::kRegimeShift};
    }
    std::vector<Config> grid;
    for (bench::ZooShape shape : shapes) {
      for (std::size_t s = 0; s < kStrategies; ++s) {
        Config cfg;
        cfg.shape = shape;
        cfg.options = strategies[s];
        cfg.oracle = s == kStrategies - 1;
        cfg.epochs = args.tiny ? 6 : 30;
        cfg.warmup = cfg.epochs / 3;
        if (args.tiny) cfg.total_bytes = 1u << 20;
        cfg.seed = args.seed;
        grid.push_back(cfg);
      }
    }
    return grid;
  }

  static Result trial(const Config& c) { return bench::zoo_trial(c); }
  static std::uint64_t fingerprint(const Config& c) {
    return bench::fingerprint(c);
  }
  static runner::Codec<Result> codec() { return bench::zoo_codec(); }

  static bool same(const Result& a, const Result& b) {
    for (int p = 0; p < 3; ++p) {
      if (!same_bits(a.phase_gbytes_per_s[p], b.phase_gbytes_per_s[p])) {
        return false;
      }
    }
    return same_bits(a.warm_gbytes_per_s, b.warm_gbytes_per_s) &&
           same_bits(a.all_gbytes_per_s, b.all_gbytes_per_s) &&
           a.final_tp == b.final_tp &&
           same_bits(a.final_delta_us, b.final_delta_us) &&
           same_bits(a.mean_wrs_per_epoch, b.mean_wrs_per_epoch) &&
           a.replans_adopted == b.replans_adopted;
  }

  /// Mean warm perceived bandwidth of the learning arm over the shapes.
  static double sim_metric(const std::vector<Config>& grid,
                           const std::vector<Result>& results) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = kLearningArm; i < grid.size(); i += kStrategies) {
      sum += results[i].warm_gbytes_per_s;
      ++n;
    }
    return sum / static_cast<double>(std::max<std::size_t>(n, 1));
  }

  static Result replay(const Config& config, Ctx& ctx, bool setup_only) {
    Config cfg = config;
    if (cfg.seed == 0) {
      cfg.seed = runner::derive_seed(bench::fingerprint(config));
    }
    expect(cfg.total_bytes > 0 && cfg.user_partitions > 0 &&
               cfg.epochs > cfg.warmup && cfg.warmup >= 0,
           "invalid zoo config");
    mpi::WorldOptions w = cfg.world;
    w.ranks = 2;
    w.copy_data = false;
    Replay rp(ctx, w);

    const std::size_t n = cfg.user_partitions;
    auto sbuf = unread_buffer(cfg.total_bytes);
    auto rbuf = unread_buffer(cfg.total_bytes);
    std::unique_ptr<part::PsendRequest> send;
    std::unique_ptr<part::PrecvRequest> recv;
    rp.psend_init(0, {sbuf.get(), cfg.total_bytes}, n, 1, 0, cfg.options,
                  &send);
    rp.precv_init(1, {rbuf.get(), cfg.total_bytes}, n, 0, 0, cfg.options,
                  &recv);
    rp.handshake();
    if (setup_only) return {};
    expect(!cfg.oracle || send->plan().learning,
           "the oracle arm needs a learning plan to seed");

    // Arrival events carry the benchmark's site tag; the tag does not
    // change dispatch order, so the timeline matches the trial form's.
    struct Arrivals {
      Replay& rp;
      part::PsendRequest& send;
      Time last_pready = 0;
    } arrivals{rp, *send};

    Result res;
    std::vector<Duration> truth(n);
    double warm_sum = 0.0;
    double all_sum = 0.0;
    double phase_sum[3] = {0.0, 0.0, 0.0};
    int phase_n[3] = {0, 0, 0};
    int warm_n = 0;
    std::uint64_t wrs_at_warm = 0;
    const int measured = cfg.epochs - cfg.warmup;
    sim::Engine& engine = rp.engine();

    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      bench::zoo_arrivals(cfg.shape, n, cfg.spread, cfg.seed, epoch,
                          cfg.epochs, truth.data());
      if (cfg.oracle) {
        const Status s = send->seed_profile(truth);
        if (!ok(s)) replay_error("seed_profile", s);
      }
      if (epoch == cfg.warmup) wrs_at_warm = send->wrs_posted_total();
      rp.start(*send);
      rp.start(*recv);

      const Time t0 = engine.now();
      arrivals.last_pready = 0;
      for (std::size_t i = 0; i < n; ++i) {
        engine.schedule_at(
            t0 + truth[i],
            [a = &arrivals, &engine, i] {
              a->last_pready = std::max(a->last_pready, engine.now());
              a->rp.pready(a->send, i);
            },
            kBenchSiteTag);
      }
      Time recv_done = -1;
      recv->when_complete([&engine, &recv_done] { recv_done = engine.now(); });
      rp.run();
      expect(send->test() && recv->test(), "zoo epoch incomplete");
      expect(recv_done >= arrivals.last_pready, "zoo receive before Pready");

      const double gbps =
          static_cast<double>(cfg.total_bytes) /
          static_cast<double>(recv_done - arrivals.last_pready);
      all_sum += gbps;
      if (epoch >= cfg.warmup) {
        warm_sum += gbps;
        const int phase = std::min((epoch - cfg.warmup) * 3 / measured, 2);
        phase_sum[phase] += gbps;
        ++phase_n[phase];
        ++warm_n;
      }
    }

    res.warm_gbytes_per_s = warm_sum / std::max(warm_n, 1);
    res.all_gbytes_per_s = all_sum / std::max(cfg.epochs, 1);
    for (int p = 0; p < 3; ++p) {
      res.phase_gbytes_per_s[p] = phase_sum[p] / std::max(phase_n[p], 1);
    }
    res.final_tp = static_cast<std::int64_t>(send->transport_partitions());
    res.final_delta_us =
        send->plan().timer_based ? to_usec(send->plan().timer_delta) : 0.0;
    res.mean_wrs_per_epoch =
        static_cast<double>(send->wrs_posted_total() - wrs_at_warm) /
        std::max(warm_n, 1);
    res.replans_adopted = static_cast<std::int64_t>(send->replans_adopted());
    rp.finish(send->wrs_posted_total(), send->replans_adopted());
    return res;
  }
};

// -- sweep: bench_fig14_sweep --------------------------------------------------

struct Sweep {
  using Config = bench::SweepConfig;
  using Result = bench::SweepResult;
  static constexpr const char* kName = "sweep";
  static constexpr const char* kSimMetric = "sim_timer_speedup";
  static constexpr std::size_t kArms = 3;  // persistent, PLogGP, timer
  /// Geometric-mean timer speedup over bench_fig14_sweep's 15 cells.
  static constexpr double kPinned = 0x1.18e687a92f62cp+0;

  static std::vector<Config> grid(const Args& args) {
    struct NoiseCase {
      Duration compute;
      double noise;
    };
    std::vector<NoiseCase> cases = {
        {msec(1), 0.01}, {msec(1), 0.04}, {msec(10), 0.04}};
    std::vector<std::size_t> sizes = {64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB,
                                      16 * MiB};
    if (args.tiny) {
      cases.resize(1);
      sizes.resize(1);
    }
    const part::Options arms[kArms] = {
        bench::persistent_options(),
        bench::ploggp_options(),
        bench::timer_options(usec(35)),
    };
    std::vector<Config> grid;
    for (const NoiseCase& nc : cases) {
      for (std::size_t bytes : sizes) {
        for (const part::Options& opts : arms) {
          Config cfg;
          if (args.tiny) cfg.px = cfg.py = 3;
          cfg.message_bytes = bytes;
          cfg.options = opts;
          cfg.compute = nc.compute;
          cfg.noise = nc.noise;
          cfg.iterations = args.tiny ? 2 : 5;
          cfg.warmup = args.tiny ? 1 : 2;
          if (args.seed != 0) cfg.seed = args.seed;
          grid.push_back(cfg);
        }
      }
    }
    return grid;
  }

  static Result trial(const Config& c) { return bench::sweep_trial(c); }
  static std::uint64_t fingerprint(const Config& c) {
    return bench::fingerprint(c);
  }
  static runner::Codec<Result> codec() { return bench::sweep_codec(); }

  static bool same(const Result& a, const Result& b) {
    return a.total_time == b.total_time &&
           a.compute_on_path == b.compute_on_path &&
           a.comm_time == b.comm_time;
  }

  /// Geometric mean over (noise, size) cells of persistent / timer
  /// communication time.
  static double sim_metric(const std::vector<Config>& grid,
                           const std::vector<Result>& results) {
    double log_sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i + kArms <= grid.size(); i += kArms) {
      log_sum += std::log(static_cast<double>(results[i].comm_time) /
                          static_cast<double>(results[i + 2].comm_time));
      ++n;
    }
    return std::exp(log_sum / static_cast<double>(std::max<std::size_t>(n, 1)));
  }

  struct RankState {
    int x = 0;
    int y = 0;
    std::unique_ptr<part::PsendRequest> send_e;
    std::unique_ptr<part::PsendRequest> send_s;
    std::unique_ptr<part::PrecvRequest> recv_w;
    std::unique_ptr<part::PrecvRequest> recv_n;
    std::unique_ptr<sim::Rng> rng;
    int iter = 0;
    int recvs_needed = 0;
    int sends_needed = 0;
    int recvs_done = 0;
    int sends_done = 0;
    std::size_t threads_done = 0;
    bool compute_done = false;
    Time warmup_done_at = -1;
  };

  /// The wavefront of bench::run_sweep, step for step.
  struct Wavefront {
    const Config& cfg;
    Replay& rp;
    std::vector<RankState> ranks;
    int total_iters;
    int finished_ranks = 0;

    int rank_id(int x, int y) const { return y * cfg.px + x; }

    void begin_iteration(RankState& r) {
      r.recvs_done = 0;
      r.sends_done = 0;
      r.threads_done = 0;
      r.compute_done = false;
      auto on_recv = [this, &r] {
        if (++r.recvs_done == r.recvs_needed) start_compute(r);
      };
      if (r.recv_w) {
        rp.start(*r.recv_w);
        r.recv_w->when_complete(on_recv);
      }
      if (r.recv_n) {
        rp.start(*r.recv_n);
        r.recv_n->when_complete(on_recv);
      }
      auto on_send = [this, &r] {
        ++r.sends_done;
        maybe_finish_iteration(r);
      };
      if (r.send_e) {
        rp.start(*r.send_e);
        r.send_e->when_complete(on_send);
      }
      if (r.send_s) {
        rp.start(*r.send_s);
        r.send_s->when_complete(on_send);
      }
      if (r.recvs_needed == 0) start_compute(r);
    }

    void start_compute(RankState& r) {
      const std::size_t n = cfg.threads;
      const auto laggard = static_cast<std::size_t>(
          r.rng->uniform_int(0, static_cast<std::int64_t>(n) - 1));
      sim::ArrivalPattern pattern =
          sim::many_before_one(n, cfg.compute, cfg.noise, laggard);
      const Duration span = cfg.jitter_per_thread * static_cast<Duration>(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (i != laggard) {
          pattern[i] += static_cast<Duration>(
              r.rng->uniform(0.0, static_cast<double>(span)));
        }
      }
      mpi::Rank& mr = rp.world().rank(rank_id(r.x, r.y));
      for (std::size_t i = 0; i < n; ++i) {
        mr.cpu().submit(pattern[i], [this, &r, i] {
          if (r.send_e) rp.pready(*r.send_e, i);
          if (r.send_s) rp.pready(*r.send_s, i);
          if (++r.threads_done == cfg.threads) {
            r.compute_done = true;
            maybe_finish_iteration(r);
          }
        });
      }
    }

    void maybe_finish_iteration(RankState& r) {
      if (!r.compute_done || r.sends_done != r.sends_needed ||
          r.recvs_done != r.recvs_needed) {
        return;
      }
      ++r.iter;
      if (r.iter == cfg.warmup) r.warmup_done_at = rp.engine().now();
      if (r.iter < total_iters) {
        begin_iteration(r);
      } else {
        ++finished_ranks;
      }
    }
  };

  static Result replay(const Config& config, Ctx& ctx, bool setup_only) {
    Config cfg = config;
    if (cfg.seed == 0) {
      cfg.seed = runner::derive_seed(bench::fingerprint(config));
    }
    expect(cfg.px >= 1 && cfg.py >= 1 && cfg.message_bytes > 0,
           "invalid sweep config");
    cfg.world.ranks = cfg.px * cfg.py;
    cfg.world.copy_data = false;
    Replay rp(ctx, cfg.world);

    Wavefront run{cfg, rp, std::vector<RankState>(
                               static_cast<std::size_t>(cfg.px * cfg.py)),
                  cfg.warmup + cfg.iterations};
    // copy_data is off, so every channel shares one backing allocation.
    auto shared_buffer = unread_buffer(cfg.message_bytes);
    const std::span<std::byte> buf{shared_buffer.get(), cfg.message_bytes};
    constexpr int kTagEast = 0;
    constexpr int kTagSouth = 1;
    for (int y = 0; y < cfg.py; ++y) {
      for (int x = 0; x < cfg.px; ++x) {
        const int id = run.rank_id(x, y);
        RankState& r = run.ranks[static_cast<std::size_t>(id)];
        r.x = x;
        r.y = y;
        r.rng = std::make_unique<sim::Rng>(
            cfg.seed ^ (static_cast<std::uint64_t>(id) * 0x9E37u));
        if (x + 1 < cfg.px) {
          rp.psend_init(id, buf, cfg.threads, run.rank_id(x + 1, y), kTagEast,
                        cfg.options, &r.send_e);
          ++r.sends_needed;
        }
        if (y + 1 < cfg.py) {
          rp.psend_init(id, buf, cfg.threads, run.rank_id(x, y + 1),
                        kTagSouth, cfg.options, &r.send_s);
          ++r.sends_needed;
        }
        if (x > 0) {
          rp.precv_init(id, buf, cfg.threads, run.rank_id(x - 1, y), kTagEast,
                        cfg.options, &r.recv_w);
          ++r.recvs_needed;
        }
        if (y > 0) {
          rp.precv_init(id, buf, cfg.threads, run.rank_id(x, y - 1),
                        kTagSouth, cfg.options, &r.recv_n);
          ++r.recvs_needed;
        }
      }
    }
    rp.handshake();
    if (setup_only) return {};

    for (RankState& r : run.ranks) run.begin_iteration(r);
    rp.run();
    expect(run.finished_ranks == cfg.px * cfg.py, "sweep ranks unfinished");

    Time warmup_done = 0;
    for (const RankState& r : run.ranks) {
      expect(r.warmup_done_at >= 0 || cfg.warmup == 0, "sweep warm-up unset");
      warmup_done = std::max(warmup_done, r.warmup_done_at);
    }
    Result res;
    res.total_time = rp.engine().now() - warmup_done;
    res.compute_on_path = static_cast<Duration>(cfg.iterations) * cfg.compute;
    res.comm_time = res.total_time - res.compute_on_path;

    std::uint64_t wrs = 0;
    for (const RankState& r : run.ranks) {
      if (r.send_e) wrs += r.send_e->wrs_posted_total();
      if (r.send_s) wrs += r.send_s->wrs_posted_total();
    }
    rp.finish(wrs, 0);
    return res;
  }
};

// -- shared orchestration ------------------------------------------------------

template <typename W>
struct GridPass {
  std::vector<typename W::Result> results;
  std::vector<double> trial_ns;  ///< per config
  std::int64_t wall_ns = 0;
  std::int64_t trials_sum_ns = 0;
};

/// The figure benches' path: trial forms through runner::run_trials,
/// one job, no cache.  A trial that throws counts as failed.
template <typename W>
GridPass<W> grid_pass(const std::vector<typename W::Config>& grid,
                      Outcome& out) {
  using Config = typename W::Config;
  using Result = typename W::Result;
  GridPass<W> pass;
  runner::RunOptions opts;
  opts.jobs = 1;
  opts.cache = nullptr;
  auto timed = [&](const Config& c) -> Result {
    ++out.attempted;
    const std::int64_t t0 = host_ns();
    Result r{};
    try {
      r = W::trial(c);
    } catch (const std::exception& e) {
      fail(out, std::string(W::kName) + " trial threw: " + e.what());
    }
    const std::int64_t dt = host_ns() - t0;
    pass.trials_sum_ns += dt;
    pass.trial_ns.push_back(static_cast<double>(dt));
    return r;
  };
  const std::int64_t t0 = host_ns();
  pass.results = runner::run_trials<Config, Result>(
      grid, timed, [](const Config& c) { return W::fingerprint(c); },
      W::codec(), opts);
  pass.wall_ns = host_ns() - t0;
  return pass;
}

template <typename W>
struct ReplayPass {
  std::vector<typename W::Result> results;
  Counts counts;
  WireStats wire;
  std::int64_t wall_ns = 0;
  std::vector<std::int64_t> setup_ns;  ///< per config
};

template <typename W>
ReplayPass<W> replay_pass(const std::vector<typename W::Config>& grid,
                          Tracer& tracer, bool setup_only, Outcome& out) {
  ReplayPass<W> pass;
  const std::int64_t t0 = host_ns();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ++out.attempted;
    Ctx ctx{tracer, pass.counts, pass.wire, static_cast<std::int64_t>(i)};
    try {
      pass.results.push_back(W::replay(grid[i], ctx, setup_only));
    } catch (const std::exception& e) {
      fail(out, std::string(W::kName) + " replay of config " +
                    std::to_string(i) + " failed: " + e.what());
      pass.results.emplace_back();
    }
    pass.setup_ns.push_back(ctx.setup_ns);
  }
  pass.wall_ns = host_ns() - t0;
  return pass;
}

template <typename W>
void expect_same(const std::vector<typename W::Result>& got,
                 const std::vector<typename W::Result>& want,
                 const char* what, Outcome& out) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || !W::same(got[i], want[i])) {
      fail(out, std::string(W::kName) + ": " + what + " differs at config " +
                    std::to_string(i));
    }
  }
}

/// Resident-set high-water mark of this process (VmHWM), in MiB.
double vm_hwm_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Peak RSS of the trial form: the largest VmHWM over one call per config,
/// each started from a trimmed heap with the high-water mark reset to the
/// current RSS.  Without the trim, what glibc keeps of earlier trials'
/// freed blocks depends on its dynamic mmap threshold and so on the order
/// of allocations: sweep's process-wide peak read 22.0, 25.7 or 37.7 MiB
/// depending on the seed.
template <typename W>
double trial_peak_rss_mib(const std::vector<typename W::Config>& grid,
                          const std::vector<typename W::Result>& want,
                          Outcome& out) {
  double peak = 0;
  std::vector<typename W::Result> got;
  for (const typename W::Config& c : grid) {
    malloc_trim(0);
    std::ofstream clear_refs("/proc/self/clear_refs");
    if (!(clear_refs << "5" << std::flush)) {  // 5 resets VmHWM
      throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
    }
    ++out.attempted;
    try {
      got.push_back(W::trial(c));
    } catch (const std::exception& e) {
      fail(out, std::string(W::kName) + " trial threw: " + e.what());
      got.emplace_back();
    }
    peak = std::max(peak, vm_hwm_mib());
  }
  expect_same<W>(got, want, "peak-RSS trial", out);
  return peak;
}

/// Store every fresh result through the public codec in a throwaway cache,
/// re-run the grid through run_trials, and require 100% hits that decode
/// to the fresh results bit for bit.
template <typename W>
void cache_round_trip(const std::vector<typename W::Config>& grid,
                      const std::vector<typename W::Result>& fresh,
                      const Args& args, Outcome& out) {
  using Config = typename W::Config;
  using Result = typename W::Result;
  const std::string dir = args.out_dir + "/cache-" + W::kName + "-" +
                          std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    runner::ResultCache cache(dir);
    const runner::Codec<Result> codec = W::codec();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      cache.store(W::fingerprint(grid[i]), codec.encode(fresh[i]));
    }
    runner::RunOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;
    runner::RunStats stats;
    const std::vector<Result> decoded = runner::run_trials<Config, Result>(
        grid, [](const Config& c) { return W::trial(c); },
        [](const Config& c) { return W::fingerprint(c); }, codec, opts,
        &stats);
    out.attempted += grid.size();
    if (stats.cache_hits != grid.size()) {
      fail(out, std::string(W::kName) + ": cache served " +
                    std::to_string(stats.cache_hits) + " of " +
                    std::to_string(grid.size()) + " trials");
    }
    expect_same<W>(decoded, fresh, "cache-decoded result", out);
  }
  std::filesystem::remove_all(dir, ec);
}

template <typename W>
std::string digest(const Counts& counts,
                   const std::vector<typename W::Result>& results) {
  runner::Hasher h;
  h.str(W::kName);
  counts.hash(h);
  const runner::Codec<typename W::Result> codec = W::codec();
  for (const typename W::Result& r : results) h.str(codec.encode(r));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return buf;
}

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename W>
void note_sim_metric(const Args& args, double value, Outcome& out) {
  char hex[64];
  std::snprintf(hex, sizeof(hex), "%a", value);
  out.notes.push_back(std::string(W::kSimMetric) + " = " + fmt_g(value) +
                      " (" + hex + ")");
  // At the pinned seed the modelled result must equal the figure
  // bench's output.
  if (args.seed == 0 && !args.tiny && value != W::kPinned) {
    fail(out, std::string(W::kSimMetric) + " " + fmt_g(value) +
                  " differs from the figure bench's " + fmt_g(W::kPinned));
  }
}

/// Set-up-only passes after each grid pass (see measure_des).
constexpr int kMinSetupPasses = 4;
constexpr int kMaxSetupPasses = 50;

/// End-to-end metrics, untraced.
template <typename W>
Outcome measure_des(const Args& args) {
  const std::vector<typename W::Config> grid = W::grid(args);
  Outcome out;
  Tracer quiet(false);
  // The untraced replay warms the allocator, gives the reference
  // results every timed pass must reproduce, and the payload volume.
  const ReplayPass<W> ref = replay_pass<W>(grid, quiet, false, out);
  const double rss_mib = trial_peak_rss_mib<W>(grid, ref.results, out);

  // Grid passes until the budget is spent, each followed by set-up-only
  // passes (World ctor + channel init + handshake): at least
  // kMinSetupPasses, then more while they have taken under a fifth of
  // the grid pass's time, so both sample the whole run and setup_s rests
  // on at least as many samples per config as wall_s.  On a shared host other
  // tenants only ever add time, in phases of seconds, so each config's
  // fastest pass is its steadiest estimate (the min-of-N protocol of
  // docs/PERF.md); summing per-config minima also combines the quiet
  // moments of different passes.
  std::vector<std::vector<double>> trial_ns(grid.size());
  std::vector<std::vector<double>> setup_ns(grid.size());
  std::vector<double> runner_ns;
  std::size_t passes = 0;
  std::size_t setup_passes = 0;
  GridPass<W> last;
  const std::int64_t t0 = host_ns();
  const std::int64_t budget = static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    last = grid_pass<W>(grid, out);
    ++passes;
    runner_ns.push_back(static_cast<double>(last.wall_ns - last.trials_sum_ns));
    for (std::size_t i = 0; i < grid.size(); ++i) {
      trial_ns[i].push_back(last.trial_ns[i]);
    }
    expect_same<W>(last.results, ref.results, "trial form vs replay", out);
    const std::int64_t s0 = host_ns();
    int n = 0;
    do {
      const ReplayPass<W> sp = replay_pass<W>(grid, quiet, true, out);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        setup_ns[i].push_back(static_cast<double>(sp.setup_ns[i]));
      }
      ++setup_passes;
    } while (++n < kMinSetupPasses ||
             (n < kMaxSetupPasses && (host_ns() - s0) * 5 < last.wall_ns));
  } while (host_ns() - t0 < budget);

  cache_round_trip<W>(grid, last.results, args, out);

  // A "round" on a DES workload is one trial call; configs differ in
  // cost by orders of magnitude, so the round percentiles are taken over
  // the per-config minima.
  std::vector<double> per_config;
  double wall_ns = lowest(runner_ns);
  double setup_sum_ns = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    per_config.push_back(lowest(trial_ns[i]) / 1e3);
    wall_ns += lowest(trial_ns[i]);
    setup_sum_ns += lowest(setup_ns[i]);
  }
  const double wall = wall_ns / 1e9;
  out.metrics = {
      {"wall_s", wall, "s"},
      {"setup_s", setup_sum_ns / 1e9, "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
      {"delivered_gbps",
       static_cast<double>(ref.counts.payload_bytes) / wall / 1e9, "GB/s"},
  };
  out.notes.push_back(
      "samples: " + std::to_string(passes) + " grid passes of " +
      std::to_string(grid.size()) + " trial calls, " +
      std::to_string(setup_passes) +
      " set-up passes (wall_s and setup_s sum per-config minima)");
  out.notes.push_back(round_note(
      percentile(per_config, 0.50), percentile(per_config, 0.99),
      "over " + std::to_string(grid.size()) + " configs' fastest calls"));
  note_sim_metric<W>(args, W::sim_metric(grid, ref.results), out);
  out.digest = digest<W>(ref.counts, ref.results);
  return out;
}

/// Per-layer metrics: the untraced trial-form pass (host and runner
/// metrics), then the same grid replayed untraced and traced.
template <typename W>
Outcome trace_des(const Args& args) {
  const std::vector<typename W::Config> grid = W::grid(args);
  Outcome out;
  Tracer quiet(false);
  const Usage u0 = usage_now();
  const GridPass<W> fresh = grid_pass<W>(grid, out);
  const Usage u1 = usage_now();
  const ReplayPass<W> plain = replay_pass<W>(grid, quiet, false, out);
  Tracer tracer(true);
  const ReplayPass<W> traced = replay_pass<W>(grid, tracer, false, out);

  expect_same<W>(plain.results, fresh.results, "untraced replay", out);
  expect_same<W>(traced.results, fresh.results, "traced replay", out);
  if (!(plain.counts == traced.counts)) {
    fail(out, std::string(W::kName) + ": traced and untraced counts differ");
  }
  cache_round_trip<W>(grid, fresh.results, args, out);

  LayerInputs in;
  in.runner_trials = static_cast<double>(grid.size());
  in.runner_overhead_s =
      static_cast<double>(fresh.wall_ns - fresh.trials_sum_ns) / 1e9;
  in.bench_harness_s =
      static_cast<double>(fresh.trials_sum_ns - plain.wall_ns) / 1e9;
  in.host_user_s = u1.user_s - u0.user_s;
  in.host_sys_s = u1.sys_s - u0.sys_s;
  in.host_minor_faults = static_cast<double>(u1.minor_faults - u0.minor_faults);
  in.counts = traced.counts;
  in.peak_inflight = static_cast<double>(traced.wire.peak);
  in.mean_inflight = traced.wire.busy_ns > 0
                         ? traced.wire.area_ns / traced.wire.busy_ns
                         : 0.0;
  in.flow_rounds = static_cast<double>(traced.wire.flow_rounds);
  in.trace_overhead_ratio = static_cast<double>(traced.wall_ns) /
                            static_cast<double>(plain.wall_ns);
  const double sim = W::sim_metric(grid, fresh.results);
  in.sim[W::kSimMetric] = sim;
  note_sim_metric<W>(args, sim, out);
  out.metrics = layer_metrics(tracer, in);
  tracer.write(args.out_dir + "/trace-" + W::kName + "-seed" +
               std::to_string(args.seed) + ".jsonl");
  out.digest = digest<W>(plain.counts, plain.results);
  return out;
}

template <typename W>
Outcome run_des(const Args& args) {
  return args.trace ? trace_des<W>(args) : measure_des<W>(args);
}

}  // namespace

Outcome run_incast(const Args& args) { return run_des<Incast>(args); }
Outcome run_zoo(const Args& args) {
  // bench::run_zoo value-initialises two fresh 64 MiB buffers per trial.
  // glibc maps blocks that large with mmap and unmaps them on free, so by
  // default every trial also pays ~33k first-touch page faults; on a
  // shared VM their cost follows the host's memory load, and zoo's wall_s
  // spread 0.19-0.28 (IQR / median) over ten runs of one build.  Serving
  // every block from the never-trimmed brk heap reuses the same resident
  // pages, so a trial pays the zero-fill itself (a 128 MiB memset, still
  // ~90% of wall_s) and not the kernel's page provisioning.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  return run_des<Zoo>(args);
}
Outcome run_sweep(const Args& args) { return run_des<Sweep>(args); }

}  // namespace perfbench
