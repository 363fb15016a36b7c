// sched_adaptive: the single-threaded SchedulerLoop over pre/post-drift
// Table-I traces, with paper-shape RPTCN sources refit periodically.
//
// Each entity's forecast source is a timing decorator around its cohort's
// shared SessionSource. Only the cohort's first entity forwards refit(), so
// each cohort model is refit once per round on its first entity's history —
// what the loop does for a source shared by pointer.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "sched/forecast.h"
#include "sched/loop.h"
#include "stats.h"
#include "stream/source.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rptcn;

constexpr std::size_t kEntities = 32;
constexpr std::size_t kCohorts = 4;
constexpr std::size_t kBootstrap = 256;   ///< warm-up rows, bootstrap fit
constexpr std::size_t kPre = 512;         ///< drift tick
constexpr std::size_t kPost = 256;
constexpr std::size_t kInterval = 1;      ///< a decision every tick
/// Refit rounds at ticks 448 (pre-drift history) and 640 (128 shifted rows).
constexpr std::size_t kRefitInterval = 192;
constexpr double kSecondsPerTrial = 4.0;  ///< trials per run: seconds / this
constexpr std::size_t kHistory = 512;

trace::WorkloadParams regime_pre() {
  trace::WorkloadParams p;
  p.base_level = 0.25;
  p.diurnal_amplitude = 0.10;
  p.noise_sigma = 0.03;
  p.ar_coefficient = 0.85;
  p.mutation_rate = 0.0;
  p.burst_rate = 0.0;
  return p;
}

trace::WorkloadParams regime_post() {
  trace::WorkloadParams p = regime_pre();
  p.base_level = 0.45;
  p.diurnal_amplitude = 0.05;
  p.noise_sigma = 0.05;
  p.ar_coefficient = 0.65;
  return p;
}

/// The paper's RPTCN (TCN channels {16,16,16}, kernel 3, fc 16, window 24,
/// top-4 correlated indicators) with the paper-reproduction optimiser
/// settings (Adam + MSE, batch 32, lr 2e-3, clip 1). Every fit runs a fixed
/// 20 epochs instead of early stopping: the epochs early stopping keeps
/// depend on the seed's data, which would make refit time, and the loop
/// time it dominates, a property of the seed rather than of the code.
sched::SessionSourceOptions source_options(std::uint64_t seed) {
  sched::SessionSourceOptions o;
  o.features = {"cpu_util_percent", "mpki", "cpi", "mem_gps"};
  o.retrain.model_name = "RPTCN";
  models::ModelConfig& m = o.retrain.model;
  m.nn.max_epochs = 20;
  m.nn.patience = 20;
  m.nn.batch_size = 32;
  m.nn.learning_rate = 2e-3f;
  m.nn.clip_norm = 1.0f;
  m.nn.seed = seed;
  m.rptcn.tcn.channels = {16, 16, 16};
  m.rptcn.tcn.kernel_size = 3;
  m.rptcn.tcn.dropout = 0.05f;
  m.rptcn.fc_dim = 16;
  o.retrain.history = kHistory;
  o.retrain.window.window = 24;
  o.retrain.window.horizon = 1;
  o.retrain.min_ticks_between = 0;
  o.retrain.tenant = "perfbench-sched";
  return o;
}

/// What the decorators saw, shared by all of them.
struct Log {
  SpanRecorder* rec = nullptr;
  int loop_span = -1;
  std::vector<double> round_start;  ///< entity 0's forecast start, per round
  std::vector<double> forecast_s;
  std::vector<std::pair<double, double>> refits;  ///< [start, end]
  std::vector<std::size_t> refit_tick;
  double abs_err = 0.0;
  double naive_err = 0.0;  ///< same ticks, forecast = last observed value
  std::size_t scored = 0;
  std::size_t non_finite = 0;
};

class TimedSource final : public sched::ForecastSource {
 public:
  TimedSource(std::shared_ptr<sched::SessionSource> inner, std::size_t entity,
              bool lead, const data::TimeSeriesFrame& trace, Log& log)
      : inner_(std::move(inner)), entity_(entity), lead_(lead),
        cpu_(trace.column("cpu_util_percent")), log_(log) {}

  const std::string& name() const override { return inner_->name(); }
  std::size_t min_history() const override { return inner_->min_history(); }

  sched::ResourceForecast forecast(const data::TimeSeriesFrame& history) override {
    const std::size_t tick = kBootstrap + calls_++ * kInterval;
    const int span = log_.rec->begin("sched.forecast", log_.loop_span, tick);
    const double t0 = now_s();
    if (entity_ == 0) log_.round_start.push_back(t0);
    const sched::ResourceForecast f = inner_->forecast(history);
    log_.forecast_s.push_back(now_s() - t0);
    log_.rec->end(span);
    if (!std::isfinite(f.cpu) || !std::isfinite(f.mem)) ++log_.non_finite;
    log_.abs_err += std::abs(f.cpu - cpu_[tick]);
    log_.naive_err += std::abs(cpu_[tick - 1] - cpu_[tick]);
    ++log_.scored;
    return f;
  }

  void refit(const data::TimeSeriesFrame& history) override {
    if (!lead_) return;
    const std::size_t tick = kBootstrap + calls_ * kInterval;
    const int span = log_.rec->begin("sched.refit", log_.loop_span, tick);
    const double t0 = now_s();
    inner_->refit(history);
    log_.refits.emplace_back(t0, now_s());
    log_.refit_tick.push_back(tick);
    log_.rec->end(span);
  }

 private:
  std::shared_ptr<sched::SessionSource> inner_;
  std::size_t entity_;
  bool lead_;
  std::vector<double> cpu_;  ///< the entity's actual cpu, per tick
  Log& log_;
  std::size_t calls_ = 0;
};

/// One trial: set up (traces + cohort bootstrap fits), then run the loop.
struct Trial {
  double setup_s = 0.0;
  std::vector<double> bootstrap_fit_s;
  std::vector<double> round_ms;
  double loop_s = 0.0;
  double recovery_s = 0.0;
  sched::LoopResult result;
  Log log;
  ObsView before;
  ObsView after;
  std::vector<std::shared_ptr<sched::SessionSource>> cohorts;
};

void run_trial(const RunArgs& args, SpanRecorder& rec, Trial& t) {
  const int setup_span = rec.begin("sched.setup");
  const double t0 = now_s();
  std::vector<sched::EntityTrace> traces;
  for (std::size_t i = 0; i < kEntities; ++i) {
    sched::EntityTrace e;
    e.id = "svc-" + std::to_string(i);
    e.frame = stream::make_mutating_trace(regime_pre(), regime_post(), kPre,
                                          kPost, args.seed * 7919 + i * 1000)
                  .frame;
    traces.push_back(std::move(e));
  }
  for (std::size_t c = 0; c < kCohorts; ++c) {
    ScopedSpan fit_span(rec, "sched.bootstrap_fit", setup_span, c);
    const double tf = now_s();
    t.cohorts.push_back(std::make_shared<sched::SessionSource>(
        "rptcn-" + std::to_string(c), traces[c].frame.slice(0, kBootstrap),
        source_options(args.seed + c)));
    t.bootstrap_fit_s.push_back(now_s() - tf);
  }
  t.setup_s = now_s() - t0;
  rec.end(setup_span);

  t.log.rec = &rec;
  std::vector<std::shared_ptr<sched::ForecastSource>> sources;
  for (std::size_t i = 0; i < kEntities; ++i)
    sources.push_back(std::make_shared<TimedSource>(
        t.cohorts[i % kCohorts], i, i < kCohorts, traces[i].frame, t.log));

  sched::LoopOptions o;
  // Enough machines that packing at headroom 1.3 is always feasible.
  o.machines.assign(kEntities, sched::MachineSpec{});
  o.autoscaler.headroom = 1.3;
  o.bootstrap_ticks = kBootstrap;
  o.decision_interval = kInterval;
  o.refit_interval = kRefitInterval;
  o.refit_history = kHistory;
  o.tenant = "perfbench-sched";

  sched::SchedulerLoop loop(std::move(traces), o);
  t.before = read_obs();
  t.log.loop_span = rec.begin("sched.loop");
  const double l0 = now_s();
  t.result = loop.run(sources);
  const double l_end = now_s();
  rec.end(t.log.loop_span);
  t.loop_s = l_end - l0;
  t.after = read_obs();

  // Decision rounds: from entity 0's forecast in one round to the next
  // round's, less any refit inside — forecasts, autoscale, pack and replay.
  const Log& log = t.log;
  for (std::size_t k = 0; k < log.round_start.size(); ++k) {
    const double a = log.round_start[k];
    const double b = k + 1 < log.round_start.size() ? log.round_start[k + 1] : l_end;
    double refit = 0.0;
    for (const auto& [rs, re] : log.refits)
      if (rs >= a && re <= b) refit += re - rs;
    t.round_ms.push_back((b - a - refit) * 1e3);
  }
  // Recovery: from the first decision after the regime shift until every
  // cohort model has been refit on history that contains shifted rows.
  const std::size_t shift_round = (kPre - kBootstrap) / kInterval;
  std::size_t first_shifted = 0;
  for (const std::size_t tick : log.refit_tick)
    if (tick > kPre && (first_shifted == 0 || tick < first_shifted)) first_shifted = tick;
  if (shift_round < log.round_start.size() && first_shifted > 0) {
    double done = 0.0;
    for (std::size_t j = 0; j < log.refits.size(); ++j)
      if (log.refit_tick[j] == first_shifted)
        done = std::max(done, log.refits[j].second);
    t.recovery_s = done - log.round_start[shift_round];
  }
}

}  // namespace

Outcome run_sched_adaptive(const RunArgs& args, SpanRecorder& rec) {
  Outcome out;
  // A fixed number of trials for a given --seconds (at least 3): about
  // kSecondsPerTrial each on an idle 4-core host.
  const std::size_t n_trials =
      std::max<std::size_t>(3, static_cast<std::size_t>(args.seconds / kSecondsPerTrial));
  std::vector<Trial> trials;
  double first_trial_rss_mb = 0.0;
  while (trials.size() < n_trials) {
    trials.emplace_back();
    run_trial(args, rec, trials.back());
    // Peak RSS through one trial: every further trial's fits and sessions
    // can push the peak up.
    if (trials.size() == 1) first_trial_rss_mb = peak_rss_mb();
  }

  std::vector<double> setup_s, round_ms, round_p50, round_p90, throughput,
      recovery, bootstrap_fit_s, refit_s, forecast_us, self_ms, step_ms;
  for (const Trial& t : trials) {
    const Log& log = t.log;
    const sched::LoopResult& r = t.result;
    setup_s.push_back(t.setup_s);
    round_ms.insert(round_ms.end(), t.round_ms.begin(), t.round_ms.end());
    round_p50.push_back(quantile(t.round_ms, 0.50));
    round_p90.push_back(quantile(t.round_ms, 0.90));
    throughput.push_back(static_cast<double>(r.decisions) / t.loop_s);
    recovery.push_back(t.recovery_s);
    bootstrap_fit_s.insert(bootstrap_fit_s.end(), t.bootstrap_fit_s.begin(),
                           t.bootstrap_fit_s.end());
    double refit_total = 0.0;
    for (const auto& [a, b] : log.refits) {
      refit_s.push_back(b - a);
      refit_total += b - a;
    }
    double forecast_total = 0.0;
    for (const double v : log.forecast_s) {
      forecast_total += v;
      forecast_us.push_back(v * 1e6);
    }
    self_ms.push_back((t.loop_s - forecast_total - refit_total) /
                      static_cast<double>(r.decisions) * 1e3);
    const double batches = obs_delta(t.before, t.after, "trainer/batches_total");
    if (batches > 0) step_ms.push_back(refit_total / batches * 1e3);

    out.attempted += r.decisions * kEntities;
    out.failed += log.non_finite;
    out.check(log.non_finite == 0, std::to_string(log.non_finite) + " non-finite forecasts");
    out.check(std::isfinite(r.score.total_cost) && std::isfinite(r.score.violation_rate),
              "non-finite scheduler score");
    out.check(r.decisions == (kPre + kPost - kBootstrap) / kInterval, "decision count");
    out.check(log.scored == r.decisions * kEntities,
              "forecast calls != decisions x entities");
    out.check(t.recovery_s > 0.0, "no refit on post-shift history");
    // The loop is deterministic: every trial must score bit-identically.
    out.check(r.score.total_cost == trials[0].result.score.total_cost &&
                  log.abs_err == trials[0].log.abs_err,
              "trials of one seed scored differently");
  }
  out.check(highest_percentile(round_ms.size()) >= 99.0, "too few decisions for p99");

  const Trial& last = trials.back();
  const sched::LoopResult& r = last.result;
  out.e2e["setup_s"] = median(setup_s);
  out.e2e["peak_rss_mb"] = first_trial_rss_mb;
  // The loop is compute-bound on one thread, and a shared host's speed
  // drifts over tens of seconds: each figure is the quieter quarter of the
  // trials (the lower quartile of times, the upper of rates).
  out.e2e["p50_ms"] = quantile(round_p50, kQuietQuantile);
  out.e2e["p90_ms"] = quantile(round_p90, kQuietQuantile);
  out.e2e["throughput_per_s"] = quantile(throughput, 1.0 - kQuietQuantile);
  out.e2e["recovery_s"] = quantile(recovery, kQuietQuantile);
  out.layers["models.forecast_mase"] = last.log.abs_err / last.log.naive_err;

  print_context(args, {{"entities", std::to_string(kEntities)},
                       {"cohorts", std::to_string(kCohorts)},
                       {"trials", std::to_string(trials.size())},
                       {"decisions_per_trial", std::to_string(r.decisions)},
                       {"refits_per_trial", std::to_string(last.log.refits.size())},
                       {"total_cost", std::to_string(r.score.total_cost)}});

  out.layers["sched.forecast_us_p50"] = quantile(forecast_us, 0.5);
  out.layers["sched.decision_p99_ms"] = quantile(round_ms, 0.99);
  out.layers["sched.refit_p50_s"] = median(refit_s);
  out.layers["sched.self_ms_per_decision"] = median(self_ms);
  out.layers["sched.migrations"] = static_cast<double>(r.score.migrations);
  out.layers["sched.scale_events"] = static_cast<double>(r.score.scale_events);
  out.layers["sched.infeasible_packs"] = static_cast<double>(r.infeasible_packs);
  out.layers["sched.total_cost"] = r.score.total_cost;
  out.layers["sched.sla_violation_rate"] = r.score.violation_rate;
  out.layers["stream.fit_generation_s_p50"] = median(bootstrap_fit_s);
  out.layers["graph.train_step_ms"] = median(step_ms);

  registry_layers(last.before, last.after, out.layers);
  std::size_t rejected = 0;
  for (const auto& c : last.cohorts) rejected += c->last_outcome().quality_rejected ? 1 : 0;
  out.layers["stream.gate_reject_share"] =
      static_cast<double>(rejected) / static_cast<double>(kCohorts);

  if (args.trace) {
    const std::shared_ptr<const serve::InferenceSession> session(
        last.cohorts[0], &last.cohorts[0]->session());
    const SessionProbe p = probe_session(session, 4, 24, false, args.seed);
    out.check(p.finite, "probe forecasts not finite");
    out.layers["serve.run_us_n1.rptcn"] = p.run_us_n1;
    out.layers["serve.run_us_n64.rptcn"] = p.run_us_n64;
    out.layers["tensor.gemm_flops_per_forecast"] = p.gemm_flops_per_forecast;
  }
  return out;
}

}  // namespace perfbench
