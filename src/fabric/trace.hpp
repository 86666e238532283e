// Per-operation lifecycle tracing.
//
// When a TraceSink is attached to the Fabric, every RDMA operation
// records its full timeline — post, WQE grant, wire start, wire end,
// landing, completions — giving the Gantt-style view Figs 10-11 are drawn
// from at wire granularity, and a debugging tool for aggregation
// behaviour ("which WR carried partitions 4-7 and when did it leave?").
//
// Tracing is off by default and costs nothing when disabled.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "fabric/fluid_network.hpp"

namespace partib::fabric {

struct TraceRecord {
  std::uint64_t op_id = 0;
  NodeId src = -1;
  NodeId dst = -1;
  std::uint64_t src_qp = 0;
  std::size_t bytes = 0;
  Time posted = -1;      ///< handed to the fabric
  Time wqe_grant = -1;   ///< WQE engine finished processing
  Time wire_start = -1;  ///< first byte enters the link
  Time wire_end = -1;    ///< last byte leaves the sender
  Time landed = -1;      ///< last byte at the destination (payload copy)
  Time recv_cqe = -1;    ///< receive completion raised (-1: no immediate)
  Time send_cqe = -1;    ///< send completion raised

  /// Wire occupancy of this operation.
  Duration wire_time() const { return wire_end - wire_start; }
  /// Post-to-delivery latency.
  Duration latency() const { return landed - posted; }
};

class TraceSink {
 public:
  /// Begin a record; returns its op id.
  std::uint64_t begin(NodeId src, NodeId dst, std::uint64_t src_qp,
                      std::size_t bytes, Time posted);

  TraceRecord& at(std::uint64_t op_id);
  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  /// CSV: op,src,dst,qp,bytes,posted,wqe,wire_start,wire_end,landed,
  ///      recv_cqe,send_cqe
  std::string to_csv() const;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace partib::fabric
