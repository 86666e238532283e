// The parallel experiment runner.
//
// A figure benchmark or tuning-table search is hundreds of *independent*
// DES trials — each builds its own sim::Engine and mpi::World, runs to
// quiescence, and reduces to a small result struct.  `run_trials` executes
// such a grid across host cores with a fixed set of worker threads that
// claim trials from one atomic cursor, while keeping the three properties
// the figure pipeline depends on:
//
//  1. **Determinism** — each trial's RNG seed is a pure function of its
//     config (the drivers pin seeds; configs that ask for a derived seed
//     get runner::derive_seed(fingerprint)), and results are collected in
//     *submission order*, so the emitted CSV/table is byte-identical for
//     any worker count, including --jobs=1 (which runs every trial
//     inline on the calling thread, reproducing the historical serial
//     behaviour exactly — no worker threads are even spawned).  A failing
//     grid surfaces the exception of its lowest-index failing trial, so
//     the error, too, is the same for every job count.
//  2. **Memoization** — with a ResultCache attached, a trial whose
//     fingerprint is already on disk is decoded instead of simulated, so
//     re-running a figure or resuming an interrupted table search pays
//     only for what changed.
//  3. **Isolation** — trials share no mutable state (the audit that made
//     the library safe for this is the thread_local conversion of the
//     diagnostics clock and checker shadow state; see docs/PERF.md).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "runner/result_cache.hpp"

namespace partib::runner {

struct RunOptions {
  /// Worker threads; 0 means default_jobs() (PARTIB_JOBS env override,
  /// else hardware concurrency).  1 runs trials inline on the caller.
  std::size_t jobs = 0;
  /// Persistent result cache; nullptr disables memoization.
  ResultCache* cache = nullptr;
};

struct RunStats {
  std::size_t trials = 0;      ///< grid size
  std::size_t cache_hits = 0;  ///< decoded from the cache
  std::size_t executed = 0;    ///< actually simulated
};

/// How a Result round-trips through the persistent cache.  Either
/// pointer may be null, which disables caching for the trial type.
/// Encode/decode must be exact (bit-level round-trip) — a decoded result
/// feeds the same formatting code as a fresh one and the output must not
/// depend on cache state.
template <typename Result>
struct Codec {
  std::string (*encode)(const Result&) = nullptr;
  bool (*decode)(std::string_view, Result*) = nullptr;
};

/// Default worker count: PARTIB_JOBS when set (>= 1), otherwise the
/// hardware concurrency (>= 1).
std::size_t default_jobs();

/// Execute `trial` over every config, in parallel, returning results in
/// submission order.  `fingerprint` must hash every config field that can
/// influence the result (see runner/fingerprint.hpp).
template <typename Config, typename Result, typename TrialFn,
          typename FingerprintFn>
std::vector<Result> run_trials(const std::vector<Config>& configs,
                               TrialFn trial, FingerprintFn fingerprint,
                               Codec<Result> codec, const RunOptions& opts,
                               RunStats* stats = nullptr) {
  const std::size_t n = configs.size();
  std::vector<Result> results(n);
  RunStats local;
  local.trials = n;

  const bool use_cache =
      opts.cache != nullptr && codec.encode != nullptr &&
      codec.decode != nullptr;
  std::vector<std::uint64_t> fps(use_cache ? n : 0);
  std::vector<std::size_t> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (use_cache) {
      fps[i] = fingerprint(configs[i]);
      if (auto payload = opts.cache->load(fps[i])) {
        if (codec.decode(*payload, &results[i])) {
          ++local.cache_hits;
          continue;
        }
      }
    }
    pending.push_back(i);
  }
  local.executed = pending.size();

  auto execute = [&](std::size_t i) {
    results[i] = trial(configs[i]);
    if (use_cache) opts.cache->store(fps[i], codec.encode(results[i]));
  };

  const std::size_t jobs = opts.jobs == 0 ? default_jobs() : opts.jobs;
  if (jobs <= 1 || pending.size() <= 1) {
    // Serial reference path: submission order on the calling thread.
    // The first exception propagates directly — the same one the parallel
    // path's stow-and-rethrow below surfaces.
    for (std::size_t i : pending) execute(i);
  } else {
    // Fixed grid: the size of `pending` is known before any trial starts
    // and nothing submits more work, so each worker just claims the next
    // slot from one cursor.  Slots are claimed from the back because the
    // figure benches order their grids by ascending size, which starts the
    // longest trials first.  A throw is stowed in the trial's own slot
    // (written by one worker; join orders it before the reads below), so
    // every other trial still runs.
    std::vector<std::exception_ptr> errors(pending.size());
    std::atomic<std::size_t> claimed{0};
    auto work = [&] {
      for (std::size_t k = claimed.fetch_add(1); k < pending.size();
           k = claimed.fetch_add(1)) {
        const std::size_t slot = pending.size() - 1 - k;
        try {
          execute(pending[slot]);
        } catch (...) {
          errors[slot] = std::current_exception();
        }
      }
    };
    const std::size_t want = std::min(jobs, pending.size());
    std::vector<std::thread> workers;
    workers.reserve(want);
    try {
      while (workers.size() < want) workers.emplace_back(work);
    } catch (const std::system_error&) {
      // The host ran out of threads: the workers already started drain
      // the grid, or the caller does when none started.
      if (workers.empty()) work();
    }
    for (std::thread& w : workers) w.join();
    // Surface the lowest-index failure on the calling thread, as the
    // serial path would.
    for (const std::exception_ptr& e : errors) {
      if (e != nullptr) std::rethrow_exception(e);
    }
  }

  if (stats != nullptr) *stats = local;
  return results;
}

}  // namespace partib::runner
