// DES determinism auditor.
//
// Determinism is a hard requirement for the simulator — every benchmark
// figure depends on it — so the auditor fingerprints the engine's dispatch
// stream ((virtual time, sequence number, scheduling-site tag) per event,
// FNV-1a hashed) and two runs of an identical scenario must produce the
// same fingerprint.  Divergence means something injected real-world state
// into the simulation (wall-clock time, unordered-container iteration,
// pointer hashing, ...) and violates rule des.nondeterminism.
//
// Usage:
//   DeterminismAuditor auditor;
//   auditor.attach(engine1);   ... run scenario ...  h1 = auditor.fingerprint();
//   auditor.attach(engine2);   ... run scenario ...  h2 = auditor.fingerprint();
//   DeterminismAuditor::expect_identical(h1, h2, "fig08 scenario");
#pragma once

#include <cstdint>
#include <functional>

#include "sim/engine.hpp"

namespace partib::check {

class DeterminismAuditor {
 public:
  DeterminismAuditor() = default;
  ~DeterminismAuditor() { detach(); }
  DeterminismAuditor(const DeterminismAuditor&) = delete;
  DeterminismAuditor& operator=(const DeterminismAuditor&) = delete;

  /// Install on `engine` (replacing any previous attachment) and reset the
  /// fingerprint for a new run.  Templated on the engine type so the
  /// auditor can also fingerprint reference implementations (e.g.
  /// tests/support/reference_engine.hpp) — anything exposing
  /// `set_dispatch_observer` with the sim::Engine observer signature.
  /// The engine must outlive the attachment: the destructor detaches, so
  /// declare the auditor after whatever owns the engine (or detach()
  /// first).
  template <typename EngineT>
  void attach(EngineT& engine) {
    detach();
    hash_ = kFnvOffsetBasis;
    events_ = 0;
    engine.set_dispatch_observer(
        [this](Time t, std::uint64_t seq, const char* site) {
          observe(t, seq, site);
        });
    detacher_ = [&engine] { engine.set_dispatch_observer(nullptr); };
  }

  /// Remove the observer from the attached engine, if any.
  void detach();

  /// Hash of every event dispatched since attach().
  std::uint64_t fingerprint() const { return hash_; }
  std::uint64_t events_observed() const { return events_; }

  /// Compare two run fingerprints; on mismatch reports
  /// des.nondeterminism (observing the active checker policy) and returns
  /// false.
  static bool expect_identical(std::uint64_t a, std::uint64_t b,
                               const char* what);

 private:
  static constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

  void observe(Time t, std::uint64_t seq, const char* site);

  std::function<void()> detacher_;
  std::uint64_t hash_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace partib::check
