#include "tracer.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

const char* const kCallNames[Tracer::kCallKinds] = {
    "mpi.world_ctor", "part.init",    "part.start",
    "part.pready",    "sim.run",      "shm.progress",
};

}  // namespace

const char* site_name(std::size_t slot) {
  if (slot < kSiteTags.size()) return kSiteTags[slot];
  return slot == kUntaggedSite ? "untagged" : "other";
}

std::size_t Tracer::site_slot(const char* tag) {
  if (tag == nullptr) return kUntaggedSite;
  for (const auto& [ptr, slot] : seen_) {
    if (ptr == tag) return slot;
  }
  std::size_t slot = kOtherSite;
  for (std::size_t i = 0; i < kSiteTags.size(); ++i) {
    if (std::strcmp(tag, kSiteTags[i]) == 0) slot = i;
  }
  seen_.emplace_back(tag, slot);
  return slot;
}

void Tracer::observe(partib::sim::Engine& engine) {
  if (!on_) return;
  engine.set_dispatch_observer([this](partib::Time, std::uint64_t, const char* tag) {
    // The previous event's callback ran from its dispatch until now.
    const std::int64_t t = host_ns();
    if (running_site_ < kSiteSlots) site_ns_[running_site_] += t - running_since_;
    running_site_ = site_slot(tag);
    ++site_events_[running_site_];
    running_since_ = t;
  });
}

void Tracer::settle_site() {
  if (running_site_ < kSiteSlots) {
    site_ns_[running_site_] += host_ns() - running_since_;
  }
  running_site_ = kSiteSlots;
}

std::size_t Tracer::run(partib::sim::Engine& engine) {
  if (!on_) return engine.run();
  const std::size_t n = call(kEngineRun, [&] { return engine.run(); });
  settle_site();
  return n;
}

int Tracer::open(const char* name, int parent, std::int64_t request) {
  if (!on_) return -1;
  spans_.push_back({name, parent, request, host_ns(), -1});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = host_ns();
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().begin;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"parent\":%d,\"request\":%lld,"
                 "\"begin_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.name, s.parent, static_cast<long long>(s.request),
                 static_cast<long long>(s.begin - t0),
                 static_cast<long long>(s.end - t0));
  }
  for (int c = 0; c < kCallKinds; ++c) {
    std::fprintf(f, "{\"call\":\"%s\",\"count\":%llu,\"ns\":%lld}\n",
                 kCallNames[c], static_cast<unsigned long long>(acc_[c].calls),
                 static_cast<long long>(acc_[c].ns));
  }
  for (std::size_t s = 0; s < kSiteSlots; ++s) {
    std::fprintf(f, "{\"site\":\"%s\",\"events\":%llu,\"ns\":%lld}\n",
                 site_name(s),
                 static_cast<unsigned long long>(site_events_[s]),
                 static_cast<long long>(site_ns_[s]));
  }
  std::fclose(f);
}

}  // namespace perfbench
