// Pieces shared by the three workloads: run arguments, clocks, peak RSS,
// deltas of the library's own obs registry, and the session probes that
// time single layers from outside.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "serve/session.h"
#include "spans.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

double now_s();
/// Peak resident set of this process (getrusage), MiB.
double peak_rss_mb();

/// Counters of the obs registry summed over tenant labels, plus ".sum" and
/// ".count" of every histogram.
struct ObsView {
  std::map<std::string, double> values;
  double get(const std::string& key) const;
};
ObsView read_obs();
double obs_delta(const ObsView& before, const ObsView& after,
                 const std::string& key);
/// Δhits / (Δhits + Δmisses) between the views; 0 when neither moved.
double obs_share(const ObsView& before, const ObsView& after,
                 const std::string& hits, const std::string& misses);
/// Mean of the samples a histogram recorded between the views; 0 if none.
double obs_mean(const ObsView& before, const ObsView& after,
                const std::string& histogram);
/// Per-layer figures every workload reads from the registry over its
/// measured window: plan-cache and pool hit shares, arena bytes, train
/// fallbacks, epochs per fit and mean epoch time.
void registry_layers(const ObsView& before, const ObsView& after,
                     std::map<std::string, double>& layers);

/// Print one non-final stdout line recording the run's context: seed,
/// nproc, kernel tier and CPU flags, plus workload-specific fields
/// (already-encoded JSON values).
void print_context(const RunArgs& args,
                   const std::vector<std::pair<std::string, std::string>>& extra);

/// Times one session from outside: N=1 and N=64 run() medians, the GEMM
/// flops one N=1 forecast issues, and (when `engine`) the median
/// submit().get() of a lone window on an otherwise idle BatchingEngine.
struct SessionProbe {
  double run_us_n1 = 0.0;
  double run_us_n64 = 0.0;
  double engine_lone_us = 0.0;
  double gemm_flops_per_forecast = 0.0;
  bool finite = true;
};
SessionProbe probe_session(const std::shared_ptr<const rptcn::serve::InferenceSession>& session,
                           std::size_t features, std::size_t window,
                           bool engine, std::uint64_t seed);

}  // namespace perfbench
