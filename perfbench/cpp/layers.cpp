#include "layers.hpp"

namespace perfbench {

void Counts::hash(partib::runner::Hasher& h) const {
  h.u64(sim_events)
      .u64(handshake_events)
      .u64(rdma_ops)
      .u64(wire_bytes)
      .u64(payload_bytes)
      .u64(control_msgs)
      .u64(wrs_posted)
      .u64(establishments)
      .u64(recycles)
      .u64(replans)
      .u64(start_calls)
      .u64(pready_calls)
      .i64(hot_qps)
      .u64(hot_provisioned_bytes);
}

std::vector<Metric> layer_metrics(const Tracer& tr, const LayerInputs& in) {
  auto secs = [](std::int64_t ns) { return static_cast<double>(ns) / 1e9; };
  auto num = [](auto v) { return static_cast<double>(v); };
  const Counts& c = in.counts;
  const Tracer::Acc& run = tr.acc(Tracer::kEngineRun);
  const Tracer::Acc& start = tr.acc(Tracer::kPartStart);
  const Tracer::Acc& pready = tr.acc(Tracer::kPartPready);
  const Tracer::Acc& progress = tr.acc(Tracer::kShmProgress);

  std::vector<Metric> m = {
      {"runner.trials", in.runner_trials, "count"},
      {"runner.overhead_s", in.runner_overhead_s, "s"},
      {"bench.harness_s", in.bench_harness_s, "s"},
      {"host.minor_faults", in.host_minor_faults, "count"},
      {"host.sys_s", in.host_sys_s, "s"},
      {"host.user_s", in.host_user_s, "s"},
      {"sim.events", num(c.sim_events), "count"},
      {"sim.handshake_events", num(c.handshake_events), "count"},
      {"sim.run_s", secs(run.ns), "s"},
      {"sim.ns_per_event",
       c.sim_events > 0 ? num(run.ns) / num(c.sim_events) : 0.0, "ns"},
  };
  for (std::size_t s = 0; s < kSiteSlots; ++s) {
    const std::string site = std::string("site.") + site_name(s);
    m.push_back({site + ".events", num(tr.site_events(s)), "count"});
    m.push_back({site + ".s", secs(tr.site_ns(s)), "s"});
  }
  const std::vector<Metric> rest = {
      {"fabric.rdma_ops", num(c.rdma_ops), "count"},
      {"fabric.wire_bytes", num(c.wire_bytes), "B"},
      {"fabric.control_msgs", num(c.control_msgs), "count"},
      {"fabric.peak_inflight", in.peak_inflight, "count"},
      {"fabric.mean_inflight", in.mean_inflight, "count"},
      {"fabric.flow_rounds_est", in.flow_rounds, "count"},
      {"verbs.wrs_posted", num(c.wrs_posted), "count"},
      {"verbs.hot_qps", num(c.hot_qps), "count"},
      {"verbs.hot_provisioned_mib",
       num(c.hot_provisioned_bytes) / (1024.0 * 1024.0), "MiB"},
      {"conn.establishments", num(c.establishments), "count"},
      {"conn.recycles", num(c.recycles), "count"},
      {"part.init_s", secs(tr.acc(Tracer::kPartInit).ns), "s"},
      {"part.start_calls", num(start.calls), "count"},
      {"part.start_s", secs(start.ns), "s"},
      {"part.pready_calls", num(pready.calls), "count"},
      {"part.pready_s", secs(pready.ns), "s"},
      {"part.pready_ns",
       pready.calls > 0 ? num(pready.ns) / num(pready.calls) : 0.0, "ns"},
      {"agg.replans_adopted", num(c.replans), "count"},
      {"shm.progress_calls", num(progress.calls), "count"},
      {"shm.progress_s", secs(progress.ns), "s"},
      {"shm.rdma_ops", in.shm_rdma_ops, "count"},
      {"trace.overhead_ratio", in.trace_overhead_ratio, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const auto& [name, unit] :
       {std::pair<const char*, const char*>{"sim_round_us", "us"},
        {"sim_learning_gbps", "GB/s"},
        {"sim_timer_speedup", "ratio"}}) {
    const auto it = in.sim.find(name);
    m.push_back({name, it == in.sim.end() ? 0.0 : it->second, unit});
  }
  return m;
}

}  // namespace perfbench
