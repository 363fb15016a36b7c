// Every metric the benchmark prints, with its unit. BENCHMARK.json and
// perfbench/METRICS.md list the same names; a workload that does not run a
// layer reports that layer's metrics as 0.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"p50_ms", "ms"},
      {"p90_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"recovery_s", "s"},
  };
  return defs;
}

inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"fleet.tick_p99_ms", "ms"},
      {"fleet.ingest_us_p50", "us"},
      {"fleet.ingest_us_p99", "us"},
      {"fleet.reject_share.queue_full", "ratio"},
      {"fleet.reject_share.backlog_full", "ratio"},
      {"fleet.backlog_max", "count"},
      {"fleet.drain_ms", "ms"},
      {"fleet.gen_late_p99_ms", "ms"},
      {"fleet.snapshots_per_entity", "ratio"},
      {"fleet.bootstrap_fit_s", "s"},
      {"fleet.saturated_ticks_per_s", "1/s"},
      {"fleet.rss_growth_mb", "MiB"},
      {"fleet.mailbox_us_mean", "us"},
      {"fleet.retrains_completed", "count"},
      {"fleet.retrain_queue_max", "count"},
      {"fleet.retrain_rejected_full", "count"},
      {"fleet.retrain_fit_s_mean", "s"},
      {"fleet.false_splinter_share", "ratio"},
      {"serve.engine_lone_us_p50", "us"},
      {"serve.avg_batch", "count"},
      {"serve.queue_wait_us_mean", "us"},
      {"serve.forward_us_mean", "us"},
      {"serve.run_us_n1.rptcn", "us"},
      {"serve.run_us_n1.lstm", "us"},
      {"serve.run_us_n64.rptcn", "us"},
      {"serve.run_us_n64.lstm", "us"},
      {"graph.plan_hit_share", "ratio"},
      {"graph.train_step_ms", "ms"},
      {"graph.train_fallbacks", "count"},
      {"graph.arena_bytes", "bytes"},
      {"opt.epochs_per_fit", "count"},
      {"opt.epoch_ms_mean", "ms"},
      {"models.forecast_mase", "ratio"},
      {"stream.fit_generation_s_p50", "s"},
      {"stream.drift_events", "count"},
      {"stream.gate_reject_share", "ratio"},
      {"tensor.gemm_flops_per_forecast", "flop"},
      {"tensor.pool_hit_share", "ratio"},
      {"sched.forecast_us_p50", "us"},
      {"sched.decision_p99_ms", "ms"},
      {"sched.refit_p50_s", "s"},
      {"sched.self_ms_per_decision", "ms"},
      {"sched.migrations", "count"},
      {"sched.scale_events", "count"},
      {"sched.infeasible_packs", "count"},
      {"sched.total_cost", "cost"},
      {"sched.sla_violation_rate", "ratio"},
      {"trace.self_time_coverage", "ratio"},
      {"trace.spans", "count"},
  };
  return defs;
}

}  // namespace perfbench
