// Host-time tracing from outside the library.
//
// The benchmark never instruments partib itself: every span is recorded
// around a public call the benchmark makes (World construction, channel
// init, Start, Pready, Engine::run, Backend::progress), and the engine's
// scheduling-site tags are read through Engine::set_dispatch_observer.
// With tracing off every wrapper is a direct call, so the untraced pass
// measures the library alone.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// Scheduling-site tags the library passes to Engine::schedule_*, plus
/// the benchmark's own.  Dispatches with no tag count as "untagged"; a
/// tag missing from this list counts as "other".
inline constexpr std::array<const char*, 13> kSiteTags = {
    "psend.group_timer",   "psend.pbuf_prepare", "psend.pre_post_delay",
    "psend.retry",         "psend.when_complete", "psend.progress",
    "precv.when_complete", "precv.progress",      "conn.dispatch",
    "conn.srq_refill",     "fabric.retransmit",   "fabric.fail_op",
    kBenchSiteTag,
};
inline constexpr std::size_t kUntaggedSite = kSiteTags.size();
inline constexpr std::size_t kOtherSite = kSiteTags.size() + 1;
inline constexpr std::size_t kSiteSlots = kSiteTags.size() + 2;

const char* site_name(std::size_t slot);

class Tracer {
 public:
  /// Public calls timed as spans.
  enum Call {
    kWorldCtor,
    kPartInit,     ///< psend_init + precv_init
    kPartStart,    ///< PsendRequest::start + PrecvRequest::start
    kPartPready,
    kEngineRun,    ///< Engine::run, handshakes included
    kShmProgress,  ///< Backend::progress on the shm backend
    kCallKinds,
  };

  struct Acc {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
  };

  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  /// Run `f` as a span of kind `c` (timed only when tracing).
  template <typename F>
  decltype(auto) call(Call c, F&& f) {
    if (!on_) return std::forward<F>(f)();
    struct Close {
      Acc& acc;
      std::int64_t t0;
      ~Close() {
        ++acc.calls;
        acc.ns += host_ns() - t0;
      }
    } close{acc_[c], host_ns()};
    return std::forward<F>(f)();
  }

  /// Attach the dispatch observer that splits engine time by site tag.
  void observe(partib::sim::Engine& engine);
  /// Engine::run as a span; dispatch time is credited per site.
  std::size_t run(partib::sim::Engine& engine);
  /// Credit the site of the last dispatched event up to now and stop
  /// charging it (end of a run or of a real-time progress pass).
  void settle_site();

  /// Coarse span tree, written out by write(): `request` groups the spans
  /// of one trial config.
  int open(const char* name, int parent, std::int64_t request);
  void close(int id);

  const Acc& acc(Call c) const { return acc_[c]; }
  std::uint64_t site_events(std::size_t slot) const {
    return site_events_[slot];
  }
  std::int64_t site_ns(std::size_t slot) const { return site_ns_[slot]; }

  /// Span log (one JSON object per line), then per-call and per-site
  /// aggregates.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t request;
    std::int64_t begin;
    std::int64_t end;
  };

  std::size_t site_slot(const char* tag);

  bool on_;
  std::array<Acc, kCallKinds> acc_{};
  std::array<std::uint64_t, kSiteSlots> site_events_{};
  std::array<std::int64_t, kSiteSlots> site_ns_{};
  /// Tag pointers seen so far and their slots: tags are string literals,
  /// so after the first dispatch of each a pointer compare finds it.
  std::vector<std::pair<const char*, std::size_t>> seen_;
  std::size_t running_site_ = kSiteSlots;  // none
  std::int64_t running_since_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
