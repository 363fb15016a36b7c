#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <iostream>

#include "common/rng.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "stats.h"
#include "tensor/dispatch.h"
#include "tensor/tensor.h"

namespace perfbench {

using namespace rptcn;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ObsView::get(const std::string& key) const {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

ObsView read_obs() {
  const obs::MetricsSnapshot snap =
      obs::rollup_tenants(obs::metrics().snapshot());
  ObsView v;
  for (const auto& [name, value] : snap.counters)
    v.values[name] = static_cast<double>(value);
  for (const auto& [name, h] : snap.histograms) {
    v.values[name + ".sum"] = h.sum;
    v.values[name + ".count"] = static_cast<double>(h.count);
  }
  for (const auto& [name, value] : snap.gauges) v.values[name] = value;
  return v;
}

double obs_delta(const ObsView& before, const ObsView& after,
                 const std::string& key) {
  return after.get(key) - before.get(key);
}

double obs_share(const ObsView& before, const ObsView& after,
                 const std::string& hits, const std::string& misses) {
  const double h = obs_delta(before, after, hits);
  const double m = obs_delta(before, after, misses);
  return h + m > 0 ? h / (h + m) : 0.0;
}

double obs_mean(const ObsView& before, const ObsView& after,
                const std::string& histogram) {
  const double n = obs_delta(before, after, histogram + ".count");
  return n > 0 ? obs_delta(before, after, histogram + ".sum") / n : 0.0;
}

void registry_layers(const ObsView& before, const ObsView& after,
                     std::map<std::string, double>& layers) {
  layers["graph.plan_hit_share"] =
      obs_share(before, after, "graph/plan_cache_hits", "graph/plan_cache_misses");
  layers["tensor.pool_hit_share"] =
      obs_share(before, after, "tensor_pool/hits", "tensor_pool/misses");
  layers["graph.arena_bytes"] = after.get("graph/arena_bytes");
  layers["graph.train_fallbacks"] = obs_delta(before, after, "graph/train_fallbacks");
  const double fits = obs_delta(before, after, "trainer/fits_total");
  layers["opt.epochs_per_fit"] =
      fits > 0 ? obs_delta(before, after, "trainer/epochs_total") / fits : 0.0;
  layers["opt.epoch_ms_mean"] = obs_mean(before, after, "trainer/epoch_seconds") * 1e3;
}

void print_context(
    const RunArgs& args,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  std::string line = "{\"context\": {\"workload\": " +
                     json_string(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + std::to_string(args.seconds) +
                     ", \"trace\": " + (args.trace ? "true" : "false") +
                     ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"kernel_arch\": " +
                     json_string(kernel_arch_name(kernel_arch())) +
                     ", \"cpu_flags\": " + json_string(cpu_flags_string());
  for (const auto& [k, v] : extra) line += ", " + json_string(k) + ": " + v;
  std::cout << line << "}}\n";
}

namespace {

Tensor random_windows(std::size_t n, std::size_t features, std::size_t window,
                      Rng& rng) {
  return Tensor::rand_uniform({n, features, window}, rng, 0.0f, 1.0f);
}

bool all_finite(const Tensor& t) {
  for (const float v : t.data())
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace

SessionProbe probe_session(
    const std::shared_ptr<const serve::InferenceSession>& session,
    std::size_t features, std::size_t window, bool engine,
    std::uint64_t seed) {
  constexpr int kRuns1 = 300;
  constexpr int kRuns64 = 40;
  Rng rng(seed);
  SessionProbe p;
  const Tensor one = random_windows(1, features, window, rng);
  const Tensor batch = random_windows(64, features, window, rng);
  // Warm the plan cache for both shapes before timing.
  p.finite = all_finite(session->run(one)) && all_finite(session->run(batch));

  const ObsView before = read_obs();
  std::vector<double> t1;
  for (int i = 0; i < kRuns1; ++i) {
    const double t = now_s();
    const Tensor out = session->run(one);
    t1.push_back(now_s() - t);
    p.finite = p.finite && all_finite(out);
  }
  const ObsView after = read_obs();
  p.gemm_flops_per_forecast =
      obs_delta(before, after, "kernel/gemm_flops") / kRuns1;
  p.run_us_n1 = median(t1) * 1e6;

  std::vector<double> t64;
  for (int i = 0; i < kRuns64; ++i) {
    const double t = now_s();
    const Tensor out = session->run(batch);
    t64.push_back(now_s() - t);
    p.finite = p.finite && all_finite(out);
  }
  p.run_us_n64 = median(t64) * 1e6;

  if (engine) {
    serve::EngineOptions eo;
    eo.max_batch = 64;
    eo.max_delay_us = 200;
    eo.tenant = "perfbench-probe";
    serve::BatchingEngine eng(session, eo);
    const Tensor w = random_windows(1, features, window, rng).reshape({features, window});
    std::vector<double> tl;
    for (int i = 0; i < 200; ++i) {
      const double t = now_s();
      const Tensor out = eng.submit(w).get();
      tl.push_back(now_s() - t);
      p.finite = p.finite && all_finite(out);
    }
    p.engine_lone_us = median(tl) * 1e6;
  }
  return p;
}

}  // namespace perfbench
