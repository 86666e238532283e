#include "bench/rig.hpp"

#include <utility>

#include "common/assert.hpp"

namespace partib::bench {

namespace {

mpi::WorldOptions timeline_only(mpi::WorldOptions options, int ranks) {
  options.ranks = ranks;
  options.copy_data = false;
  return options;
}

}  // namespace

std::unique_ptr<std::byte[]> unread_payload(std::size_t bytes) {
  return std::make_unique_for_overwrite<std::byte[]>(bytes);
}

Rig::Rig(mpi::WorldOptions options, int ranks)
    : world_(engine_, timeline_only(std::move(options), ranks)) {}

std::span<std::byte> Rig::payload(std::size_t bytes) {
  payloads_.push_back(unread_payload(bytes));
  return {payloads_.back().get(), bytes};
}

std::unique_ptr<part::PsendRequest> Rig::psend(
    int self, std::span<std::byte> buffer, std::size_t partitions, int dst,
    int tag, const part::Options& options) {
  std::unique_ptr<part::PsendRequest> send;
  PARTIB_ASSERT(ok(part::psend_init(world_.rank(self), buffer, partitions,
                                    dst, tag, 0, options, &send)));
  return send;
}

std::unique_ptr<part::PrecvRequest> Rig::precv(
    int self, std::span<std::byte> buffer, std::size_t partitions, int src,
    int tag, const part::Options& options) {
  std::unique_ptr<part::PrecvRequest> recv;
  PARTIB_ASSERT(ok(part::precv_init(world_.rank(self), buffer, partitions,
                                    src, tag, 0, options, &recv)));
  return recv;
}

Channel Rig::channel(int src, int dst, int tag, std::size_t bytes,
                     std::size_t partitions, const part::Options& options) {
  const std::span<std::byte> sbuf = payload(bytes);
  const std::span<std::byte> rbuf = payload(bytes);
  Channel c;
  c.send = psend(src, sbuf, partitions, dst, tag, options);
  c.recv = precv(dst, rbuf, partitions, src, tag, options);
  return c;
}

}  // namespace partib::bench
