// The simulated cluster every trial form in src/bench builds on: one
// engine, one world, the payload buffers and the partitioned channels
// over them.
//
// Trials measure the virtual timeline only, so the rig runs its world
// with copy_data = false.  The fabric then copies no payload, and the
// payload bytes the rig hands out are never read or written: they are
// allocated uninitialised, so a 256 MiB channel costs address space, not
// a 256 MiB zero-fill and its page faults.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "mpi/world.hpp"
#include "part/partitioned.hpp"
#include "sim/engine.hpp"

namespace partib::bench {

/// `bytes` of payload that nothing reads: uninitialised, never touched.
std::unique_ptr<std::byte[]> unread_payload(std::size_t bytes);

/// Both ends of one partitioned channel.
struct Channel {
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
};

class Rig {
 public:
  /// A `ranks`-rank world over `options`; the rig sets its ranks and
  /// copy_data = false itself.
  Rig(mpi::WorldOptions options, int ranks);

  sim::Engine& engine() { return engine_; }
  mpi::Rank& rank(int id) { return world_.rank(id); }

  /// Payload of `bytes` that lives as long as the rig (see file comment).
  std::span<std::byte> payload(std::size_t bytes);

  /// psend_init / precv_init on rank `self`, communicator 0; must succeed.
  std::unique_ptr<part::PsendRequest> psend(
      int self, std::span<std::byte> buffer, std::size_t partitions, int dst,
      int tag, const part::Options& options);
  std::unique_ptr<part::PrecvRequest> precv(
      int self, std::span<std::byte> buffer, std::size_t partitions, int src,
      int tag, const part::Options& options);

  /// The channel src -> dst: its send side then its receive side, each
  /// over its own payload of `bytes`.
  Channel channel(int src, int dst, int tag, std::size_t bytes,
                  std::size_t partitions, const part::Options& options);

  /// Run the engine until every handshake has settled.
  void settle() { engine_.run(); }

 private:
  sim::Engine engine_;
  std::vector<std::unique_ptr<std::byte[]>> payloads_;
  mpi::World world_;
};

}  // namespace partib::bench
