#include "bench/trial.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "runner/fingerprint.hpp"

namespace partib::bench {

namespace {

// -- field lists --------------------------------------------------------------
//
// Fields<T>::of(x, f) calls f with every field of x, in hash order for
// configs and payload order for results (trial.hpp says how to add one).
// Config schemas also carry their tag and simulation entry point.

template <typename T>
struct Fields;

template <>
struct Fields<model::LogGPParams> {
  static void of(auto& p, auto&& f) { f(p.L, p.o_s, p.o_r, p.g, p.G); }
};

template <>
struct Fields<fabric::NicParams> {
  static void of(auto& n, auto&& f) {
    f(n.wire, n.mtu, n.segment_header_bytes, n.max_outstanding_wr_per_qp,
      n.qp_bw_share, n.qp_activation, n.o_post, n.ctrl_overhead);
  }
};

template <>
struct Fields<mpi::WorldOptions> {
  static void of(auto& w, auto&& f) {
    f(w.ranks, w.nic, w.copy_data, w.cores_per_rank, w.cq_depth,
      w.pready_cpu, w.verbs_sw_per_msg, w.dpu_aggregation,
      w.dpu_post_overhead);
  }
};

template <>
struct Fields<part::UcxModel> {
  static void of(auto& u, auto&& f) {
    f(u.bcopy_max, u.rndv_min, u.o_bcopy, u.copy_G, u.o_zcopy, u.o_rndv,
      u.rndv_extra_latencies, u.eager_wire_share, u.model_lock_convoy);
  }
};

template <>
struct Fields<part::Options> {
  static void of(auto& o, auto&& f) {
    f(o.aggregator, o.transport_partitions_override, o.qp_count_override,
      o.shared_resources, o.ucx);
  }
};

/// Fields hashed after the "*/v1" keys were cut: they feed behind their
/// own tag, and only when one differs from its default, so every key
/// taken before they were hashed stays valid.
void late_fields(const part::Options& o, const mpi::WorldOptions& w,
                 auto&& f) {
  f(o.max_send_retries, o.retry_backoff, w.faults, w.conn_max_connections,
    w.conn_srq_capacity, w.conn_srq_limit);
}

template <>
struct Fields<OverheadConfig> {
  static constexpr const char* kTag = "overhead/v1";
  static constexpr auto run = run_overhead;
  static void of(auto& c, auto&& f) {
    f(c.total_bytes, c.user_partitions, c.iterations, c.warmup,
      c.start_jitter_per_thread, c.seed, c.options, c.world);
  }
};

template <>
struct Fields<PerceivedConfig> {
  static constexpr const char* kTag = "perceived/v1";
  static constexpr auto run = run_perceived_bandwidth;
  static void of(auto& c, auto&& f) {
    f(c.total_bytes, c.user_partitions, c.compute, c.noise,
      c.jitter_per_thread, c.iterations, c.warmup, c.seed, c.options,
      c.world);
  }
};

template <>
struct Fields<SweepConfig> {
  static constexpr const char* kTag = "sweep/v1";
  static constexpr auto run = run_sweep;
  static void of(auto& c, auto&& f) {
    f(c.px, c.py, c.threads, c.message_bytes, c.compute, c.noise,
      c.jitter_per_thread, c.iterations, c.warmup, c.seed, c.options,
      c.world);
  }
};

template <>
struct Fields<HaloConfig> {
  static constexpr const char* kTag = "halo/v1";
  static constexpr auto run = run_halo;
  static void of(auto& c, auto&& f) {
    f(c.px, c.py, c.threads, c.face_bytes, c.compute, c.noise,
      c.jitter_per_thread, c.iterations, c.warmup, c.seed, c.options,
      c.world);
  }
};

template <>
struct Fields<ConnScaleConfig> {
  static constexpr const char* kTag = "connscale/v1";
  static constexpr auto run = run_connscale;
  static void of(auto& c, auto&& f) {
    f(c.peers, c.alltoall, c.bytes, c.user_partitions, c.rounds, c.seed,
      c.options, c.world);
  }
};

template <>
struct Fields<ZooConfig> {
  static constexpr const char* kTag = "zoo/v1";
  static constexpr auto run = run_zoo;
  static void of(auto& c, auto&& f) {
    f(c.shape, c.total_bytes, c.user_partitions, c.oracle, c.spread,
      c.epochs, c.warmup, c.seed, c.options, c.world);
  }
};

template <>
struct Fields<OverheadResult> {
  static void of(auto& r, auto&& f) {
    f(r.mean_round, r.min_round, r.max_round, r.wrs_posted,
      r.host_cpu_per_round);
  }
};

template <>
struct Fields<PerceivedResult> {
  static void of(auto& r, auto&& f) {
    f(r.mean_gbytes_per_s, r.min_gbytes_per_s, r.max_gbytes_per_s,
      r.wire_gbytes_per_s, r.mean_wrs_per_round, r.mean_min_delta,
      r.pready_ns, r.arrival_ns);
  }
};

template <>
struct Fields<SweepResult> {
  static void of(auto& r, auto&& f) {
    f(r.total_time, r.compute_on_path, r.comm_time);
  }
};

template <>
struct Fields<ConnScaleResult> {
  static void of(auto& r, auto&& f) {
    f(r.mean_round, r.hot_qps, r.hot_cqs, r.hot_srqs, r.hot_provisioned_bytes,
      r.hot_resident_bytes, r.establishments, r.recycles);
  }
};

template <>
struct Fields<ZooResult> {
  static void of(auto& r, auto&& f) {
    f(r.warm_gbytes_per_s, r.all_gbytes_per_s, r.phase_gbytes_per_s,
      r.final_tp, r.final_delta_us, r.mean_wrs_per_epoch, r.replans_adopted);
  }
};

// -- hashing ------------------------------------------------------------------

/// Type-driven fingerprint feed.  Integers, enums and bools hash as their
/// value widened to 64 bits, doubles by bit pattern.  Strategy identity
/// comes from describe(): parameter-complete by contract
/// (agg/aggregator.hpp), so two option sets hash equal exactly when they
/// plan identically.  A fault plan hashes as its own fingerprint.
struct Feed {
  runner::Hasher& h;

  void operator()(const auto&... v) { (field(v), ...); }

  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      h.f64(v);
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      h.u64(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, fabric::FaultPlanConfig>) {
      h.u64(v.fingerprint());
    } else if constexpr (std::is_same_v<
                             T, std::shared_ptr<const agg::Aggregator>>) {
      h.str(v ? v->describe() : "none");
    } else {
      Fields<T>::of(v, *this);
    }
  }
};

std::uint64_t late_digest(const part::Options& o,
                          const mpi::WorldOptions& w) {
  runner::Hasher h;
  late_fields(o, w, Feed{h});
  return h.digest();
}

template <typename Config>
std::uint64_t fingerprint_of(const Config& cfg) {
  runner::Hasher h;
  h.str(Fields<Config>::kTag);
  Fields<Config>::of(cfg, Feed{h});
  static const std::uint64_t kLateDefaults =
      late_digest(part::Options{}, mpi::WorldOptions{});
  const std::uint64_t late = late_digest(cfg.options, cfg.world);
  if (late != kLateDefaults) h.str("late").u64(late);
  return h.digest();
}

// -- cache coding -------------------------------------------------------------

/// Type-driven payload encoder: space-separated fields, integers in
/// decimal, doubles in %a hexfloat (round-trips bit-exactly through
/// strtod), arrays element by element, vectors as their size followed by
/// their elements.
struct Encoder {
  std::string out;

  void operator()(const auto&... v) { (field(v), ...); }

  template <typename T>
  void field(const T& v) {
    char buf[40];
    int n = 0;
    if constexpr (std::is_floating_point_v<T>) {
      n = std::snprintf(buf, sizeof(buf), "%a", v);
    } else if constexpr (std::is_signed_v<T>) {
      n = std::snprintf(buf, sizeof(buf), "%" PRId64,
                        static_cast<std::int64_t>(v));
    } else {
      n = std::snprintf(buf, sizeof(buf), "%" PRIu64,
                        static_cast<std::uint64_t>(v));
    }
    if (!out.empty()) out += ' ';
    out.append(buf, static_cast<std::size_t>(n));
  }
  template <typename T, std::size_t N>
  void field(const T (&a)[N]) {
    for (const T& x : a) field(x);
  }
  template <typename T>
  void field(const std::vector<T>& v) {
    field(v.size());
    for (const T& x : v) field(x);
  }
};

/// Whitespace-separated field scanner over a cache payload, the decoder
/// matching Encoder.  strtoll / strtoull / strtod accept exactly what the
/// encoder emits, so decode is an exact inverse of encode.  Text after
/// the last field is ignored.
struct FieldReader {
  const char* p;
  const char* end;
  bool ok = true;

  explicit FieldReader(std::string_view s)
      : p(s.data()), end(s.data() + s.size()) {}

  void operator()(auto&... v) { (field(v), ...); }

  template <typename T>
  void field(T& v) {
    char* next = nullptr;
    T x{};
    if constexpr (std::is_floating_point_v<T>) {
      x = std::strtod(p, &next);
    } else if constexpr (std::is_signed_v<T>) {
      x = static_cast<T>(std::strtoll(p, &next, 10));
    } else {
      x = static_cast<T>(std::strtoull(p, &next, 10));
    }
    // The payload is NUL-terminated by the cache layer's std::string, so
    // strto* cannot scan past `end`; a conversion that consumed nothing
    // (next == p) means a malformed/truncated payload.
    if (next == p || next > end) {
      ok = false;
      x = T{};
    } else {
      p = next;
    }
    v = x;
  }
  template <typename T, std::size_t N>
  void field(T (&a)[N]) {
    for (T& x : a) field(x);
  }
  template <typename T>
  void field(std::vector<T>& v) {
    std::size_t n = 0;
    field(n);
    // Every element takes at least a separator and a digit, so a count
    // the rest of the payload cannot hold is corrupt: reject it before
    // allocating for it.
    if (!ok || n > static_cast<std::size_t>(end - p) / 2) {
      ok = false;
      v.clear();
      return;
    }
    v.resize(n);
    for (T& x : v) field(x);
  }
};

template <typename Result>
runner::Codec<Result> codec_of() {
  runner::Codec<Result> c;
  c.encode = [](const Result& r) -> std::string {
    Encoder e;
    Fields<Result>::of(r, e);
    return std::move(e.out);
  };
  c.decode = [](std::string_view s, Result* r) -> bool {
    FieldReader f(s);
    Fields<Result>::of(*r, f);
    return f.ok;
  };
  return c;
}

// -- trial form and grid runner -----------------------------------------------

template <typename Config>
auto trial_of(const Config& cfg) {
  Config c = cfg;
  if (c.seed == 0) c.seed = runner::derive_seed(fingerprint_of(cfg));
  return Fields<Config>::run(c);
}

template <typename Config>
auto grid_of(const std::vector<Config>& grid, const runner::RunOptions& opts,
             runner::RunStats* stats) {
  using Result = decltype(trial_of(grid.front()));
  return runner::run_trials<Config, Result>(grid, trial_of<Config>,
                                            fingerprint_of<Config>,
                                            codec_of<Result>(), opts, stats);
}

}  // namespace

std::uint64_t fingerprint(const OverheadConfig& cfg) {
  return fingerprint_of(cfg);
}
std::uint64_t fingerprint(const PerceivedConfig& cfg) {
  return fingerprint_of(cfg);
}
std::uint64_t fingerprint(const SweepConfig& cfg) {
  return fingerprint_of(cfg);
}
std::uint64_t fingerprint(const HaloConfig& cfg) {
  return fingerprint_of(cfg);
}
std::uint64_t fingerprint(const ConnScaleConfig& cfg) {
  return fingerprint_of(cfg);
}
std::uint64_t fingerprint(const ZooConfig& cfg) { return fingerprint_of(cfg); }

runner::Codec<OverheadResult> overhead_codec() {
  return codec_of<OverheadResult>();
}
runner::Codec<PerceivedResult> perceived_codec() {
  return codec_of<PerceivedResult>();
}
runner::Codec<SweepResult> sweep_codec() { return codec_of<SweepResult>(); }
runner::Codec<HaloResult> halo_codec() { return codec_of<HaloResult>(); }
runner::Codec<ConnScaleResult> connscale_codec() {
  return codec_of<ConnScaleResult>();
}
runner::Codec<ZooResult> zoo_codec() { return codec_of<ZooResult>(); }

OverheadResult overhead_trial(const OverheadConfig& cfg) {
  return trial_of(cfg);
}
PerceivedResult perceived_trial(const PerceivedConfig& cfg) {
  return trial_of(cfg);
}
SweepResult sweep_trial(const SweepConfig& cfg) { return trial_of(cfg); }
HaloResult halo_trial(const HaloConfig& cfg) { return trial_of(cfg); }
ConnScaleResult connscale_trial(const ConnScaleConfig& cfg) {
  return trial_of(cfg);
}
ZooResult zoo_trial(const ZooConfig& cfg) { return trial_of(cfg); }

std::vector<OverheadResult> run_overhead_grid(
    const std::vector<OverheadConfig>& grid, const runner::RunOptions& opts,
    runner::RunStats* stats) {
  return grid_of(grid, opts, stats);
}

std::vector<PerceivedResult> run_perceived_grid(
    const std::vector<PerceivedConfig>& grid, const runner::RunOptions& opts,
    runner::RunStats* stats) {
  return grid_of(grid, opts, stats);
}

std::vector<SweepResult> run_sweep_grid(const std::vector<SweepConfig>& grid,
                                        const runner::RunOptions& opts,
                                        runner::RunStats* stats) {
  return grid_of(grid, opts, stats);
}

std::vector<HaloResult> run_halo_grid(const std::vector<HaloConfig>& grid,
                                      const runner::RunOptions& opts,
                                      runner::RunStats* stats) {
  return grid_of(grid, opts, stats);
}

std::vector<ConnScaleResult> run_connscale_grid(
    const std::vector<ConnScaleConfig>& grid, const runner::RunOptions& opts,
    runner::RunStats* stats) {
  return grid_of(grid, opts, stats);
}

std::vector<ZooResult> run_zoo_grid(const std::vector<ZooConfig>& grid,
                                    const runner::RunOptions& opts,
                                    runner::RunStats* stats) {
  return grid_of(grid, opts, stats);
}

}  // namespace partib::bench
