#include "sched/loop.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "obs/trace.h"
#include "trace/indicators.h"

namespace rptcn::sched {

namespace {

/// Validation hook for the member-initializer list.
const LoopOptions& validated(const LoopOptions& options) {
  options.validate();
  return options;
}

/// Demand as a fraction of one machine's capacity: the trace emits
/// utilisation percent (0-100 of a machine), the cluster model works in
/// machine fractions.
double percent_to_fraction(double percent) {
  return std::max(percent, 0.0) / 100.0;
}

}  // namespace

void LoopOptions::validate() const {
  RPTCN_CHECK(!machines.empty(), "LoopOptions.machines must be non-empty");
  RPTCN_CHECK(decision_interval > 0,
              "LoopOptions.decision_interval must be >= 1");
  RPTCN_CHECK(bootstrap_ticks > 0, "LoopOptions.bootstrap_ticks must be >= 1");
  RPTCN_CHECK(refit_history > 0, "LoopOptions.refit_history must be >= 1");
  RPTCN_CHECK(tenant.find_first_of("{}=") == std::string::npos,
              "LoopOptions.tenant must not contain '{', '}' or '=': \""
                  << tenant << "\"");
  autoscaler.validate();
  cost.validate();
}

SchedulerLoop::SchedulerLoop(std::vector<EntityTrace> traces,
                             LoopOptions options)
    : traces_(std::move(traces)),
      options_(validated(options)),
      decisions_counter_(obs::metrics().counter("sched/decisions_total",
                                                options_.tenant)),
      migrations_counter_(obs::metrics().counter("sched/migrations_total",
                                                 options_.tenant)),
      scale_events_counter_(obs::metrics().counter("sched/scale_events_total",
                                                   options_.tenant)),
      violations_counter_(obs::metrics().counter("sched/sla_violations_total",
                                                 options_.tenant)),
      infeasible_counter_(obs::metrics().counter(
          "sched/infeasible_packs_total", options_.tenant)),
      nonfinite_counter_(obs::metrics().counter(
          "sched/nonfinite_forecasts_total", options_.tenant)),
      machines_used_gauge_(
          obs::metrics().gauge("sched/machines_used", options_.tenant)),
      forecast_hist_(obs::metrics().histogram("sched/forecast_seconds",
                                              options_.tenant)),
      pack_hist_(
          obs::metrics().histogram("sched/pack_seconds", options_.tenant)) {
  RPTCN_CHECK(!traces_.empty(), "SchedulerLoop needs >= 1 entity trace");
  std::unordered_set<std::string> ids;
  length_ = traces_.front().frame.length();
  for (const EntityTrace& t : traces_) {
    RPTCN_CHECK(!t.id.empty(), "entity trace with empty id");
    RPTCN_CHECK(ids.insert(t.id).second, "duplicate entity trace: " << t.id);
    for (const std::string& name : trace::indicator_names())
      RPTCN_CHECK(t.frame.has(name), "entity " << t.id
                                               << " trace is missing "
                                               << name);
    length_ = std::min(length_, t.frame.length());
  }
  RPTCN_CHECK(length_ > options_.bootstrap_ticks,
              "traces of length " << length_ << " leave no ticks after the "
                                  << options_.bootstrap_ticks
                                  << "-tick bootstrap");
}

LoopResult SchedulerLoop::run(
    const std::vector<std::shared_ptr<ForecastSource>>& sources) {
  RPTCN_CHECK(sources.size() == traces_.size(),
              "need one forecast source per entity trace: "
                  << sources.size() << " sources, " << traces_.size()
                  << " traces");
  for (const auto& s : sources)
    RPTCN_CHECK(s != nullptr, "null forecast source");

  // A source shared between entities refits once per round, on the history
  // of the first entity bound to it.
  std::unordered_map<ForecastSource*, std::size_t> refit_owner;
  for (std::size_t i = 0; i < sources.size(); ++i)
    refit_owner.emplace(sources[i].get(), i);

  Autoscaler scaler(options_.autoscaler);
  ClusterModel cluster(options_.machines);
  LoopResult result;
  result.evaluator = ReplayEvaluator(options_.cost);

  // Committed allocation per entity; zeroed while the packer cannot place
  // the entity (priced as fully under-provisioned).
  std::unordered_map<std::string, Allocation> live;
  for (const EntityTrace& t : traces_) {
    Allocation a;
    a.entity = t.id;
    live.emplace(t.id, a);
  }
  std::size_t prior_scale_events = 0;
  std::size_t prior_nonfinite = 0;

  const auto history_tail = [&](std::size_t entity,
                                std::size_t tick) -> data::TimeSeriesFrame {
    const std::size_t span = std::min(tick, options_.refit_history);
    return traces_[entity].frame.slice(tick - span, span);
  };

  for (std::size_t tick = options_.bootstrap_ticks; tick < length_; ++tick) {
    if ((tick - options_.bootstrap_ticks) % options_.decision_interval == 0) {
      obs::TraceSpan span("sched/decision");
      ++result.decisions;
      decisions_counter_.add(1);

      if (options_.refit_interval > 0 && tick != options_.bootstrap_ticks &&
          (tick - options_.bootstrap_ticks) % options_.refit_interval == 0) {
        for (const auto& [source, owner] : refit_owner) {
          source->refit(history_tail(owner, tick));
          ++result.refits;
        }
      }

      std::vector<Allocation> allocations;
      allocations.reserve(traces_.size());
      {
        obs::ScopedTimer timer(forecast_hist_);
        for (std::size_t i = 0; i < traces_.size(); ++i) {
          // Rows [0, tick): the decision never sees the tick it provisions.
          const ResourceForecast raw =
              sources[i]->forecast(history_tail(i, tick));
          ResourceForecast fraction;
          fraction.cpu = percent_to_fraction(raw.cpu);
          fraction.mem = percent_to_fraction(raw.mem);
          allocations.push_back(scaler.decide(traces_[i].id, fraction));
        }
      }

      PackResult pack;
      {
        obs::ScopedTimer timer(pack_hist_);
        pack = cluster.pack(allocations);
      }
      for (const Allocation& a : allocations) live[a.entity] = a;
      for (const std::string& u : pack.unplaced) {
        live[u].cpu = 0.0;
        live[u].mem = 0.0;
      }
      if (!pack.feasible) {
        ++result.infeasible_packs;
        infeasible_counter_.add(1);
      }
      result.evaluator.record_migrations(tick, pack.migrations);
      migrations_counter_.add(pack.migrations);
      const std::size_t events = scaler.scale_events() - prior_scale_events;
      prior_scale_events = scaler.scale_events();
      result.evaluator.record_scale_events(tick, events);
      scale_events_counter_.add(events);
      nonfinite_counter_.add(scaler.nonfinite_forecasts() - prior_nonfinite);
      prior_nonfinite = scaler.nonfinite_forecasts();
      machines_used_gauge_.set(static_cast<double>(pack.machines_used));
    }

    for (const EntityTrace& t : traces_) {
      ResourceForecast actual;
      actual.cpu = percent_to_fraction(t.frame.column("cpu_util_percent")[tick]);
      actual.mem = percent_to_fraction(t.frame.column("mem_util_percent")[tick]);
      if (result.evaluator.observe(tick, actual, live[t.id]))
        violations_counter_.add(1);
    }
    ++result.scored_ticks;
  }

  result.score = result.evaluator.score();
  return result;
}

}  // namespace rptcn::sched
