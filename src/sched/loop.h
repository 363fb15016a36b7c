// SchedulerLoop: the closed predict -> provision -> replay -> score loop.
//
// One loop drives a set of entity traces through a forecast source per
// entity, an Autoscaler, the ClusterModel packer, and the
// ReplayEvaluator:
//
//   every `decision_interval` ticks:
//     (optionally) refit the forecast sources on trailing history
//     forecast each entity's next-tick demand from history before the tick
//     autoscale: demand * headroom -> per-entity allocation
//     pack: FFD placement, migrations counted
//   every tick:
//     replay the actual demand against the committed allocation
//
// Decisions are strictly causal: the decision at tick t sees rows [0, t)
// only, and its allocations are scored against ticks [t, next decision).
// Entities the packer could not place score as fully under-provisioned
// (allocation zero) until a later round packs them again — failing to
// place is priced, not ignored.
//
// The loop is single-threaded and deterministic: same traces, sources and
// options -> bit-identical scores. Observability: sched/decisions_total,
// sched/migrations_total, sched/scale_events_total,
// sched/sla_violations_total, sched/infeasible_packs_total,
// sched/nonfinite_forecasts_total, sched/machines_used,
// sched/forecast_seconds, sched/pack_seconds, and a "sched/decision" trace
// span per round.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "data/timeseries.h"
#include "obs/metrics.h"
#include "sched/autoscaler.h"
#include "sched/cluster.h"
#include "sched/forecast.h"
#include "sched/replay.h"

namespace rptcn::sched {

/// One entity's recorded actuals (all eight Table-I columns).
struct EntityTrace {
  std::string id;
  data::TimeSeriesFrame frame;
};

struct LoopOptions {
  std::vector<MachineSpec> machines = {{}, {}};
  AutoscalerOptions autoscaler;
  CostModel cost;
  /// Warm-up rows before the first decision (history for the forecasters;
  /// ticks before this are not scored).
  std::size_t bootstrap_ticks = 128;
  /// Re-forecast / re-pack every this many ticks.
  std::size_t decision_interval = 8;
  /// Adaptive mode: refit every source each `refit_interval` ticks past
  /// bootstrap (0 = frozen, sources keep their bootstrap fit).
  std::size_t refit_interval = 0;
  /// Trailing rows handed to forecast()/refit().
  std::size_t refit_history = 512;
  /// Metrics tenant label for the sched/* series (empty = unlabeled).
  std::string tenant;

  /// Throws common::CheckError naming the offending field.
  void validate() const;
};

struct LoopResult {
  ReplayScore score;          ///< full-run score
  ReplayEvaluator evaluator;  ///< kept for score_window() on sub-ranges
  std::size_t decisions = 0;
  std::size_t refits = 0;           ///< refit calls across sources
  std::size_t infeasible_packs = 0;  ///< rounds with >= 1 unplaced entity
  std::size_t scored_ticks = 0;     ///< ticks replayed against decisions

  LoopResult() : evaluator(CostModel{}) {}
};

class SchedulerLoop {
 public:
  /// Traces must share the eight Table-I columns; the loop runs over
  /// [0, min trace length).
  SchedulerLoop(std::vector<EntityTrace> traces, LoopOptions options);

  /// Drive the loop with one forecast source per entity (index-aligned
  /// with the traces). Sources may be shared between entities — a shared
  /// source is refit once per refit round, on the history of the first
  /// entity bound to it.
  LoopResult run(const std::vector<std::shared_ptr<ForecastSource>>& sources);

  std::size_t length() const { return length_; }
  const std::vector<EntityTrace>& traces() const { return traces_; }

 private:
  std::vector<EntityTrace> traces_;
  LoopOptions options_;
  std::size_t length_ = 0;

  // Registry handles are process-lifetime stable; resolved once here.
  obs::Counter& decisions_counter_;
  obs::Counter& migrations_counter_;
  obs::Counter& scale_events_counter_;
  obs::Counter& violations_counter_;
  obs::Counter& infeasible_counter_;
  obs::Counter& nonfinite_counter_;
  obs::Gauge& machines_used_gauge_;
  obs::Histogram& forecast_hist_;
  obs::Histogram& pack_hist_;
};

}  // namespace rptcn::sched
