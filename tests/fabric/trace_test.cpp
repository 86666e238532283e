// Per-operation lifecycle tracing.
#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"
#include "fabric/fabric.hpp"
#include "fabric/trace.hpp"
#include "sim/engine.hpp"
#include "support/test_world.hpp"

namespace partib::fabric {
namespace {

struct TraceFx {
  sim::Engine engine;
  Fabric fab{engine, NicParams::connectx5_edr(), /*copy=*/false};
  TraceSink sink;
  NodeId a, b;

  TraceFx() {
    a = fab.add_node();
    b = fab.add_node();
    fab.set_trace(&sink);
  }

  void post(std::size_t bytes, std::uint64_t qp, bool with_recv = true) {
    RdmaOp op;
    op.src = a;
    op.dst = b;
    op.src_qp = qp;
    op.bytes = bytes;
    op.on_send_complete = [](Time) {};
    if (with_recv) op.on_recv_complete = [](Time) {};
    fab.post_rdma_write(std::move(op));
  }
};

TEST(Trace, RecordsFullLifecycleInOrder) {
  TraceFx fx;
  fx.post(64 * KiB, 1);
  fx.engine.run();
  ASSERT_EQ(fx.sink.size(), 1u);
  const TraceRecord& r = fx.sink.records()[0];
  EXPECT_EQ(r.bytes, 64 * KiB);
  EXPECT_EQ(r.src_qp, 1u);
  // Monotone pipeline timestamps.
  EXPECT_LE(r.posted, r.wqe_grant);
  EXPECT_LT(r.wqe_grant, r.wire_start);
  EXPECT_LT(r.wire_start, r.wire_end);
  EXPECT_LT(r.wire_end, r.landed);
  EXPECT_LT(r.landed, r.recv_cqe);
  EXPECT_LT(r.recv_cqe, r.send_cqe);
}

TEST(Trace, PlainWriteHasNoRecvCqe) {
  TraceFx fx;
  fx.post(4 * KiB, 1, /*with_recv=*/false);
  fx.engine.run();
  EXPECT_EQ(fx.sink.records()[0].recv_cqe, -1);
  EXPECT_GT(fx.sink.records()[0].send_cqe, 0);
}

TEST(Trace, WireTimeMatchesBandwidth) {
  TraceFx fx;
  fx.post(1 * MiB, 1);
  fx.engine.run();
  const TraceRecord& r = fx.sink.records()[0];
  const auto& nic = fx.fab.nic();
  const double expected = static_cast<double>(
                              fx.fab.wire_bytes_for(1 * MiB)) *
                          nic.wire.G / nic.qp_bw_share;
  EXPECT_NEAR(static_cast<double>(r.wire_time()), expected, expected * 0.01);
}

TEST(Trace, SameQpWiresDoNotOverlap) {
  TraceFx fx;
  for (int i = 0; i < 4; ++i) fx.post(256 * KiB, 7);
  fx.engine.run();
  std::vector<const TraceRecord*> ops;
  for (const TraceRecord& r : fx.sink.records()) {
    if (r.src_qp == 7) ops.push_back(&r);
  }
  ASSERT_EQ(ops.size(), 4u);
  for (std::size_t i = 1; i < ops.size(); ++i) {
    EXPECT_GE(ops[i]->wire_start, ops[i - 1]->wire_end);
  }
}

TEST(Trace, CsvHasHeaderAndRows) {
  TraceFx fx;
  fx.post(512, 1);
  fx.engine.run();
  const std::string csv = fx.sink.to_csv();
  EXPECT_NE(csv.find("op,src,dst,qp,bytes"), std::string::npos);
  EXPECT_NE(csv.find("0,0,1,1,512,"), std::string::npos);
}

TEST(Trace, DisabledSinkCostsNothing) {
  TraceFx fx;
  fx.fab.set_trace(nullptr);
  fx.post(1024, 1);
  fx.engine.run();
  EXPECT_EQ(fx.sink.size(), 0u);
}

TEST(Trace, EndToEndChannelTracesAggregation) {
  // Attach a sink to a partitioned channel's world: the WR count in the
  // trace must match the aggregation plan.
  test::ChannelFixture cfx(64 * KiB, 16, test::static_options(4, 2));
  TraceSink sink;
  cfx.world->fab().set_trace(&sink);
  cfx.run_round(1);
  ASSERT_EQ(sink.size(), 4u);  // 4 transport partitions
  for (const TraceRecord& r : sink.records()) {
    EXPECT_EQ(r.bytes, 16 * KiB);  // 4 user partitions of 4 KiB each
    EXPECT_GT(r.recv_cqe, 0);
  }
  cfx.world->fab().set_trace(nullptr);
}

}  // namespace
}  // namespace partib::fabric
