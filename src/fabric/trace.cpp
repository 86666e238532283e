#include "fabric/trace.hpp"

#include <sstream>

#include "common/assert.hpp"

namespace partib::fabric {

std::uint64_t TraceSink::begin(NodeId src, NodeId dst, std::uint64_t src_qp,
                               std::size_t bytes, Time posted) {
  TraceRecord r;
  r.op_id = records_.size();
  r.src = src;
  r.dst = dst;
  r.src_qp = src_qp;
  r.bytes = bytes;
  r.posted = posted;
  records_.push_back(r);
  return r.op_id;
}

TraceRecord& TraceSink::at(std::uint64_t op_id) {
  PARTIB_ASSERT(op_id < records_.size());
  return records_[op_id];
}

std::string TraceSink::to_csv() const {
  std::ostringstream out;
  out << "op,src,dst,qp,bytes,posted,wqe,wire_start,wire_end,landed,"
         "recv_cqe,send_cqe\n";
  for (const TraceRecord& r : records_) {
    out << r.op_id << ',' << r.src << ',' << r.dst << ',' << r.src_qp << ','
        << r.bytes << ',' << r.posted << ',' << r.wqe_grant << ','
        << r.wire_start << ',' << r.wire_end << ',' << r.landed << ','
        << r.recv_cqe << ',' << r.send_cqe << '\n';
  }
  return out.str();
}

}  // namespace partib::fabric
