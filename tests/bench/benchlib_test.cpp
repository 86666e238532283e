// The benchmark harness itself: sane results from the overhead,
// perceived-bandwidth and stencil (sweep, halo) generators, a rig payload
// that never becomes resident, the parameter probe's recovery of the
// configured fabric parameters, and pinned trial fingerprints and cache
// payloads.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/overhead.hpp"
#include "bench/perceived.hpp"
#include "bench/probe.hpp"
#include "bench/report.hpp"
#include "bench/halo.hpp"
#include "bench/sweep.hpp"
#include "bench/trial.hpp"
#include "common/units.hpp"
#include "support/bench_main.hpp"
#include "support/test_world.hpp"

namespace partib::bench {
namespace {

part::Options ploggp() { return test::ploggp_options(); }
part::Options persistent() { return test::persistent_options(); }

TEST(Overhead, ProducesPositiveDeterministicTimes) {
  OverheadConfig cfg;
  cfg.total_bytes = 64 * KiB;
  cfg.user_partitions = 16;
  cfg.options = ploggp();
  cfg.iterations = 5;
  cfg.warmup = 1;
  const auto a = run_overhead(cfg);
  const auto b = run_overhead(cfg);
  EXPECT_GT(a.mean_round, 0);
  EXPECT_EQ(a.mean_round, b.mean_round);  // fully deterministic
  EXPECT_EQ(a.min_round, b.min_round);
  EXPECT_GE(a.max_round, a.min_round);
}

TEST(Overhead, PersistentPostsOnePerPartitionPerRound) {
  OverheadConfig cfg;
  cfg.total_bytes = 64 * KiB;
  cfg.user_partitions = 8;
  cfg.options = persistent();
  cfg.iterations = 4;
  cfg.warmup = 1;
  const auto r = run_overhead(cfg);
  EXPECT_EQ(r.wrs_posted, 8u * 4u);
}

TEST(Overhead, RoundTimeGrowsWithMessageSize) {
  auto time_for = [&](std::size_t bytes) {
    OverheadConfig cfg;
    cfg.total_bytes = bytes;
    cfg.user_partitions = 16;
    cfg.options = ploggp();
    cfg.iterations = 3;
    cfg.warmup = 1;
    return run_overhead(cfg).mean_round;
  };
  EXPECT_LT(time_for(64 * KiB), time_for(16 * MiB));
}

TEST(Overhead, AggregationBeatsPersistentAtMediumSizes) {
  // The paper's core claim, as a regression test: at 128 KiB with 32
  // partitions the PLogGP aggregator must beat the UCX-like baseline.
  OverheadConfig cfg;
  cfg.total_bytes = 128 * KiB;
  cfg.user_partitions = 32;
  cfg.iterations = 5;
  cfg.warmup = 1;
  cfg.options = persistent();
  const auto base = run_overhead(cfg).mean_round;
  cfg.options = ploggp();
  const auto ours = run_overhead(cfg).mean_round;
  EXPECT_GT(static_cast<double>(base) / static_cast<double>(ours), 1.5);
}

TEST(Perceived, AboveWireForMediumBelowForStreams) {
  PerceivedConfig cfg;
  cfg.total_bytes = 8 * MiB;
  cfg.user_partitions = 32;
  cfg.options = persistent();
  cfg.iterations = 3;
  cfg.warmup = 1;
  const auto r = run_perceived_bandwidth(cfg);
  // Early-bird: perceived bandwidth well above the physical wire.
  EXPECT_GT(r.mean_gbytes_per_s, r.wire_gbytes_per_s * 2);
  EXPECT_GT(r.min_gbytes_per_s, 0.0);
  EXPECT_GE(r.max_gbytes_per_s, r.mean_gbytes_per_s);
}

TEST(Perceived, PlogGPBelowPersistent) {
  // Aggregation enlarges the laggard's message: Fig 9's ordering.
  PerceivedConfig cfg;
  cfg.total_bytes = 8 * MiB;
  cfg.user_partitions = 32;
  cfg.iterations = 3;
  cfg.warmup = 1;
  cfg.options = persistent();
  const double p = run_perceived_bandwidth(cfg).mean_gbytes_per_s;
  cfg.options = ploggp();
  const double a = run_perceived_bandwidth(cfg).mean_gbytes_per_s;
  EXPECT_GT(p, a);
}

TEST(Perceived, TimerRecoversTowardPersistent) {
  PerceivedConfig cfg;
  cfg.total_bytes = 8 * MiB;
  cfg.user_partitions = 32;
  cfg.iterations = 3;
  cfg.warmup = 1;
  cfg.options = ploggp();
  const double plain = run_perceived_bandwidth(cfg).mean_gbytes_per_s;
  cfg.options = test::timer_options(usec(100));
  const double timer = run_perceived_bandwidth(cfg).mean_gbytes_per_s;
  EXPECT_GT(timer, plain * 2);
}

TEST(Perceived, ResultCarriesLastRoundTimeline) {
  PerceivedConfig cfg;
  cfg.total_bytes = 1 * MiB;
  cfg.user_partitions = 16;
  cfg.options = ploggp();
  cfg.iterations = 2;
  cfg.warmup = 1;
  const PerceivedResult r = run_perceived_bandwidth(cfg);
  ASSERT_EQ(r.pready_ns.size(), 16u);
  ASSERT_EQ(r.arrival_ns.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_GE(r.pready_ns[i], 0);
    EXPECT_GE(r.arrival_ns[i], r.pready_ns[i]);
  }

  cfg.iterations = 1;
  const PerceivedResult one = run_perceived_bandwidth(cfg);
  EXPECT_EQ(one.mean_min_delta, min_delta_estimate(one.pready_ns));
}

// Fig 12's estimator and Figs 10-11's bandwidth equation.
TEST(Profiler, MinDeltaExcludesLaggard) {
  const std::vector<Time> pready = {100, 130, 110, 5000};  // 3: laggard
  // Non-laggard spread: 130 - 100 = 30.
  EXPECT_EQ(min_delta_estimate(pready), 30);
}

TEST(Profiler, MinDeltaLaggardDetectedAnywhere) {
  const std::vector<Time> pready = {9000, 100, 160, 120};  // 0: laggard
  EXPECT_EQ(min_delta_estimate(pready), 60);
}

TEST(Profiler, MinDeltaNeedsThreePreadys) {
  const std::vector<Time> pready = {100, 500, -1, -1};  // -1: never ready
  EXPECT_EQ(min_delta_estimate(pready), 0);
}

TEST(Profiler, EstimatedCommTimeIsBandwidthEquation) {
  // comm = bytes / bandwidth; 1 MiB at 12.1 B/ns.
  const Duration t = estimated_comm_time(MiB, 12.1);
  EXPECT_EQ(t, static_cast<Duration>(static_cast<double>(MiB) / 12.1));
}

TEST(Sweep, SmallGridCompletes) {
  SweepConfig cfg;
  cfg.px = 3;
  cfg.py = 3;
  cfg.threads = 4;
  cfg.message_bytes = 64 * KiB;
  cfg.options = ploggp();
  cfg.compute = usec(100);
  cfg.noise = 0.04;
  cfg.iterations = 3;
  cfg.warmup = 1;
  const auto r = run_sweep(cfg);
  EXPECT_GT(r.total_time, 0);
  EXPECT_GT(r.comm_time, 0);
  EXPECT_EQ(r.compute_on_path, 3 * usec(100));
  EXPECT_EQ(r.total_time, r.comm_time + r.compute_on_path);
}

TEST(Sweep, DegenerateSingleRankGrid) {
  SweepConfig cfg;
  cfg.px = 1;
  cfg.py = 1;
  cfg.threads = 4;
  cfg.message_bytes = 4 * KiB;
  cfg.options = ploggp();
  cfg.compute = usec(50);
  cfg.noise = 0.0;
  cfg.iterations = 2;
  cfg.warmup = 1;
  const auto r = run_sweep(cfg);  // no channels at all: pure compute
  EXPECT_GT(r.total_time, 0);
}

TEST(Sweep, SingleRowPipeline) {
  SweepConfig cfg;
  cfg.px = 4;
  cfg.py = 1;
  cfg.threads = 2;
  cfg.message_bytes = 16 * KiB;
  cfg.options = persistent();
  cfg.compute = usec(100);
  cfg.noise = 0.01;
  cfg.iterations = 2;
  cfg.warmup = 1;
  const auto r = run_sweep(cfg);
  EXPECT_GT(r.comm_time, 0);
}

TEST(Sweep, DeterministicForSameSeed) {
  SweepConfig cfg;
  cfg.px = 2;
  cfg.py = 2;
  cfg.threads = 4;
  cfg.message_bytes = 64 * KiB;
  cfg.options = ploggp();
  cfg.compute = usec(200);
  cfg.noise = 0.04;
  cfg.iterations = 2;
  cfg.warmup = 1;
  EXPECT_EQ(run_sweep(cfg).total_time, run_sweep(cfg).total_time);
  // The halo pattern runs on the same stencil runner.
  HaloConfig halo;
  halo.px = 2;
  halo.py = 2;
  halo.threads = 4;
  halo.face_bytes = 64 * KiB;
  halo.options = ploggp();
  halo.compute = usec(200);
  halo.iterations = 2;
  halo.warmup = 1;
  EXPECT_EQ(run_halo(halo).total_time, run_halo(halo).total_time);
}

TEST(Stencil, SweepComputeWaitsForReceivesHaloComputesAtOnce) {
  // Two ranks in a row, one noiseless iteration of 1 ms compute.  The
  // wavefront's east rank computes only after the west rank's compute
  // has reached it: two computes in series.  Both halo ranks compute at
  // once and only then exchange faces.
  SweepConfig sweep;
  sweep.px = 2;
  sweep.py = 1;
  sweep.threads = 2;
  sweep.message_bytes = 4 * KiB;
  sweep.options = ploggp();
  sweep.noise = 0.0;
  sweep.jitter_per_thread = 0;
  sweep.iterations = 1;
  sweep.warmup = 0;
  EXPECT_GE(run_sweep(sweep).total_time, 2 * sweep.compute);

  HaloConfig halo;
  halo.px = 2;
  halo.py = 1;
  halo.threads = 2;
  halo.face_bytes = 4 * KiB;
  halo.options = ploggp();
  halo.noise = 0.0;
  halo.jitter_per_thread = 0;
  halo.iterations = 1;
  halo.warmup = 0;
  const Duration total = run_halo(halo).total_time;
  EXPECT_GE(total, halo.compute);
  EXPECT_LT(total, 2 * halo.compute);
}

TEST(BenchRig, PayloadIsNeverTouched) {
  // Trials run with copy_data = false, so nothing reads or writes the
  // rig's payload and it must never become resident: a perceived trial
  // over two 128 MiB buffers may grow the peak RSS by far less than their
  // 256 MiB.  The bound leaves room for AddressSanitizer, whose shadow of
  // the payload alone is one eighth of it.  ctest runs each test in its
  // own process, so the delta is this trial's alone.
  const auto peak_rss_mib = [] {
    rusage ru{};
    EXPECT_EQ(getrusage(RUSAGE_SELF, &ru), 0);
    return ru.ru_maxrss / 1024;  // ru_maxrss is in KiB
  };
  PerceivedConfig cfg;
  cfg.total_bytes = 128 * MiB;
  cfg.options = ploggp();
  cfg.iterations = 1;
  cfg.warmup = 0;
  const long before = peak_rss_mib();
  const PerceivedResult r = run_perceived_bandwidth(cfg);
  const long grown = peak_rss_mib() - before;
  EXPECT_GT(r.mean_gbytes_per_s, 0.0);
  EXPECT_LT(grown, 64) << "peak RSS grew by " << grown << " MiB";
}

TEST(Probe, RecoversEffectivePerByteCost) {
  const auto params = fabric::NicParams::connectx5_edr();
  const auto probe = run_parameter_probe(params);
  // The slope includes the per-QP engine share: G_eff = G / share.
  const double expected = params.wire.G / params.qp_bw_share;
  EXPECT_NEAR(probe.G, expected, expected * 0.02);
}

TEST(Probe, InterceptMatchesFixedCosts) {
  const auto params = fabric::NicParams::connectx5_edr();
  const auto probe = run_parameter_probe(params);
  const Duration expected = params.wire.g + params.wire.o_s +
                            params.wire.L + params.wire.o_r;
  EXPECT_NEAR(static_cast<double>(probe.intercept),
              static_cast<double>(expected),
              static_cast<double>(expected) * 0.05);
}

TEST(Probe, AsLoggpIsInternallyConsistent) {
  const auto probe = run_parameter_probe(fabric::NicParams::connectx5_edr());
  const auto p = probe.as_loggp();
  EXPECT_DOUBLE_EQ(p.G, probe.G);
  EXPECT_EQ(p.g, probe.gap);
  EXPECT_EQ(p.L + p.g, std::max<Duration>(probe.intercept, p.g));
}

TEST(Report, TableFormatsAndCsv) {
  Table t("demo", {"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "a,bb\n1,2\n333,4\n");
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("333"), std::string::npos);
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(1.2345, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt(-2.5, 1), "-2.5");
}

// Trial fingerprints are the keys of the persistent result cache
// (.partib-cache/).  These pins catch any change that would silently
// re-key it: a config field, a hash feed, or an aggregator's describe().
TEST(TrialFingerprint, PinnedForDefaultConfigs) {
  EXPECT_EQ(fingerprint(OverheadConfig{}), 0x8dcfe1f553c6825bULL);
  EXPECT_EQ(fingerprint(PerceivedConfig{}), 0xfeb7296bf4e0f190ULL);
  EXPECT_EQ(fingerprint(SweepConfig{}), 0x68f9671821f90371ULL);
  EXPECT_EQ(fingerprint(HaloConfig{}), 0x98c472ae53976274ULL);
  EXPECT_EQ(fingerprint(ConnScaleConfig{}), 0xbd7296dc4d89efffULL);
  EXPECT_EQ(fingerprint(ZooConfig{}), 0x541749c66212f0d3ULL);
}

TEST(TrialFingerprint, PinnedForZooLearningAndOracleArms) {
  const model::LogGPParams params =
      model::LogGPParams::niagara_mpi_measured();
  ZooConfig learning;
  learning.options = learning_options(params);
  EXPECT_EQ(fingerprint(learning), 0xa0f25298930a5e5cULL);
  ZooConfig oracle;
  oracle.options = oracle_options(params);
  oracle.oracle = true;
  EXPECT_EQ(fingerprint(oracle), 0x4187ea3b9175a28bULL);
}

// Fault injection, the connection-manager caps and the retry budget all
// change the simulated timeline, so each must re-key the cache and the
// derived seed, in every schema.  Spelling out a default value must not:
// keys taken before these fields were hashed stay valid.
template <typename Config>
void expect_fault_and_connection_settings_rekey() {
  using Edit = std::function<void(part::Options&, mpi::WorldOptions&)>;
  const std::vector<Edit> edits = {
      [](part::Options&, mpi::WorldOptions& w) { w.faults.drop_rate = 0.01; },
      [](part::Options&, mpi::WorldOptions& w) { w.faults.seed = 7; },
      [](part::Options&, mpi::WorldOptions& w) {
        w.conn_max_connections = 64;
      },
      [](part::Options&, mpi::WorldOptions& w) { w.conn_srq_capacity = 512; },
      [](part::Options&, mpi::WorldOptions& w) { w.conn_srq_limit = 32; },
      [](part::Options& o, mpi::WorldOptions&) { o.max_send_retries = 1; },
      [](part::Options& o, mpi::WorldOptions&) { o.retry_backoff = usec(8); },
  };
  std::set<std::uint64_t> seen = {fingerprint(Config{})};
  for (const Edit& edit : edits) {
    Config c;
    edit(c.options, c.world);
    EXPECT_TRUE(seen.insert(fingerprint(c)).second) << seen.size();
  }
  Config spelled;
  spelled.world.conn_srq_limit = mpi::WorldOptions{}.conn_srq_limit;
  spelled.options.max_send_retries = part::Options{}.max_send_retries;
  EXPECT_EQ(fingerprint(spelled), fingerprint(Config{}));
}

TEST(TrialFingerprint, DistinguishesFaultAndConnectionSettings) {
  expect_fault_and_connection_settings_rekey<OverheadConfig>();
  expect_fault_and_connection_settings_rekey<PerceivedConfig>();
  expect_fault_and_connection_settings_rekey<SweepConfig>();
  expect_fault_and_connection_settings_rekey<HaloConfig>();
  expect_fault_and_connection_settings_rekey<ConnScaleConfig>();
  expect_fault_and_connection_settings_rekey<ZooConfig>();
}

// Cache payloads are the values of the persistent result cache: an
// encoder change must not re-format entries already on disk.  Each case
// pins the encoding of one non-default result (negative Durations, a
// uint64 above INT64_MAX, non-round doubles) and checks the decode side:
// bit-identical round trip, truncated payloads rejected, trailing text
// after the last field accepted.  A result that holds vectors cannot be
// compared bytewise; its decode is checked by re-encoding it, which is
// exact because the encoding is.
template <typename Result>
void expect_payload_pinned(const runner::Codec<Result>& codec,
                           const Result& r, const std::string& payload) {
  EXPECT_EQ(codec.encode(r), payload);
  Result back{};
  ASSERT_TRUE(codec.decode(payload, &back)) << payload;
  if constexpr (std::is_trivially_copyable_v<Result>) {
    EXPECT_EQ(std::memcmp(&back, &r, sizeof(Result)), 0) << payload;
  } else {
    EXPECT_EQ(codec.encode(back), payload);
  }
  Result scratch{};
  EXPECT_TRUE(codec.decode(payload + " 7", &scratch)) << payload;
  EXPECT_FALSE(codec.decode(payload.substr(0, payload.rfind(' ')), &scratch))
      << payload;
  EXPECT_FALSE(codec.decode("", &scratch));
}

TEST(TrialCodec, PayloadsPinned) {
  OverheadResult overhead{};
  overhead.mean_round = -1'234'567;
  overhead.min_round = 42;
  overhead.max_round = 9'876'543'210;
  overhead.wrs_posted = 0xF000'0000'0000'0001ULL;
  overhead.host_cpu_per_round = 777;
  expect_payload_pinned(overhead_codec(), overhead,
                        "-1234567 42 9876543210 17293822569102704641 777");

  PerceivedResult perceived{};
  perceived.mean_gbytes_per_s = 12.345678901234567;
  perceived.min_gbytes_per_s = 1.0 / 3.0;
  perceived.max_gbytes_per_s = -0.1;
  perceived.wire_gbytes_per_s = 6.02e23;
  perceived.mean_wrs_per_round = 1e-300;
  perceived.mean_min_delta = -35'000;
  perceived.pready_ns = {0, -1, 100'000'000'123};
  perceived.arrival_ns = {7};
  expect_payload_pinned(perceived_codec(), perceived,
      "0x1.8b0fcd32f707ap+3 0x1.5555555555555p-2 -0x1.999999999999ap-4 "
      "0x1.fde9f10a8d361p+78 0x1.56e1fc2f8f359p-997 "
      "-35000 3 0 -1 100000000123 1 7");

  SweepResult sweep{};
  sweep.total_time = -5;
  sweep.compute_on_path = 123'456'789'012;
  sweep.comm_time = 987;
  expect_payload_pinned(sweep_codec(), sweep, "-5 123456789012 987");

  HaloResult halo{};
  halo.total_time = 31'415'926;
  halo.compute_on_path = -27'182;
  halo.comm_time = 1;
  expect_payload_pinned(halo_codec(), halo, "31415926 -27182 1");

  ConnScaleResult connscale{};
  connscale.mean_round = -99;
  connscale.hot_qps = 4096;
  connscale.hot_cqs = -3;
  connscale.hot_srqs = 7;
  connscale.hot_provisioned_bytes = 0xFFFF'FFFF'FFFF'FFFFULL;
  connscale.hot_resident_bytes = 0x8000'0000'0000'0000ULL;
  connscale.establishments = 12;
  connscale.recycles = 3;
  expect_payload_pinned(connscale_codec(), connscale,
      "-99 4096 -3 7 18446744073709551615 9223372036854775808 12 3");

  ZooResult zoo{};
  zoo.warm_gbytes_per_s = 11.75;
  zoo.all_gbytes_per_s = 1.0 / 7.0;
  zoo.phase_gbytes_per_s[0] = 0.1;
  zoo.phase_gbytes_per_s[1] = 2.5e-7;
  zoo.phase_gbytes_per_s[2] = 3.14159;
  zoo.final_tp = -24;
  zoo.final_delta_us = 17.3;
  zoo.mean_wrs_per_epoch = 33.333;
  zoo.replans_adopted = 0x7FFF'FFFF'FFFF'FFFFLL;
  expect_payload_pinned(zoo_codec(), zoo,
      "0x1.78p+3 0x1.2492492492492p-3 0x1.999999999999ap-4 "
      "0x1.0c6f7a0b5ed8dp-22 0x1.921f9f01b866ep+1 -24 0x1.14ccccccccccdp+4 "
      "0x1.0aa9fbe76c8b4p+5 9223372036854775807");
}

TEST(TrialCodec, VectorFieldsRoundTrip) {
  const runner::Codec<PerceivedResult> codec = perceived_codec();
  PerceivedResult r{};
  for (std::size_t i = 0; i < 32; ++i) {
    r.pready_ns.push_back(static_cast<Duration>(i * i) - 5);
    r.arrival_ns.push_back(static_cast<Duration>(i) * 1'000'000'007);
  }
  PerceivedResult back{};
  ASSERT_TRUE(codec.decode(codec.encode(r), &back));
  EXPECT_EQ(back.pready_ns, r.pready_ns);
  EXPECT_EQ(back.arrival_ns, r.arrival_ns);

  // Empty vectors round-trip too, and replace what the target held.
  ASSERT_TRUE(codec.decode(codec.encode(PerceivedResult{}), &back));
  EXPECT_TRUE(back.pready_ns.empty());
  EXPECT_TRUE(back.arrival_ns.empty());
}

TEST(TrialCodec, OversizedVectorCountFailsDecode) {
  // A cache file is outside input: a count the rest of the payload cannot
  // hold fails the decode (the trial is then recomputed) instead of
  // sizing an allocation from it.
  const runner::Codec<PerceivedResult> codec = perceived_codec();
  const std::string prefix = "0x1p+0 0x1p+0 0x1p+0 0x1p+0 0x1p+0 0 ";
  PerceivedResult back{};
  ASSERT_TRUE(codec.decode(prefix + "2 1 2 0", &back));
  EXPECT_FALSE(codec.decode(prefix + "4 1 2 0", &back));
  EXPECT_FALSE(codec.decode(prefix + "18446744073709551615 1 2 0", &back));
  EXPECT_FALSE(codec.decode(prefix + "-1 1 2 0", &back));
  EXPECT_FALSE(codec.decode(prefix + "2 1 2 1000000", &back));
}

}  // namespace
}  // namespace partib::bench
