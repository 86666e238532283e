#include "backend/backend.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>

#include "backend/des_backend.hpp"
#include "backend/shm/shm_backend.hpp"
#include "check/check.hpp"
#include "common/diag.hpp"
#include "common/env.hpp"
#include "common/log.hpp"

namespace partib::backend {
namespace {

// "des" first: it is the documented default everywhere the list is shown.
constexpr std::string_view kNames[] = {"des", "shm"};

std::string joined_names() {
  std::string out;
  for (std::string_view n : kNames) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

std::unique_ptr<Backend> make_backend(std::string_view name,
                                      const Config& config) {
  if (name == "des") return std::make_unique<DesBackend>(config);
  if (name == "shm") return std::make_unique<ShmBackend>(config);
  // Through the checker sink, not raw diag_emit: policy-aware (tests
  // count it silently under Policy::kCount) and recorded against the
  // registered rule id.
  const std::string requested(name);
  check::report("backend.unknown", requested.c_str(), /*rank=*/-1,
                "registered backends: " + joined_names());
  return nullptr;
}

std::vector<std::string> backend_names() {
  return {std::begin(kNames), std::end(kNames)};
}

bool backend_registered(std::string_view name) {
  return std::ranges::find(kNames, name) != std::end(kNames);
}

std::string default_backend_name() {
  auto env = env_string("PARTIB_BACKEND");
  if (!env || env->empty()) return "des";
  if (!backend_registered(*env)) {
    PARTIB_WARN("backend: PARTIB_BACKEND='%s' is not registered (%s); abort",
                env->c_str(), joined_names().c_str());
    std::abort();
  }
  return *env;
}

}  // namespace partib::backend
