#include "runner/runner.hpp"

#include "common/env.hpp"

namespace partib::runner {

std::size_t default_jobs() {
  const std::int64_t env = env_int("PARTIB_JOBS", 0);
  if (env > 0) return static_cast<std::size_t>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace partib::runner
