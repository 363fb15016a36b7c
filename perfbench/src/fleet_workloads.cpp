// fleet_steady and fleet_storm: open-loop load on one FleetManager.
//
// One generator thread (the caller) offers ticks round-robin over the
// entities on a fixed schedule: tick k of a rung is due at t0 + k / rate and
// is sent when due whether or not earlier ticks were answered. Lateness of
// the generator against that schedule is recorded per rung. A rung whose
// generator fell behind is invalid: a ladder rung then counts as failed, the
// fixed-rate rung is run again, and the storm's rung line says so.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "data/timeseries.h"
#include "fleet/builder.h"
#include "fleet/manager.h"
#include "obs/metrics.h"
#include "stats.h"
#include "stream/normalizer.h"
#include "stream/retrain.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rptcn;

constexpr std::size_t kCohorts = 8;
constexpr std::size_t kBootstrapRows = 240;
constexpr std::size_t kWindow = 16;
constexpr int kSetups = 3;  ///< set-ups per run; setup_s is their median
constexpr double kLatencyLimitMs = 50.0;  ///< p99 limit of a sustainable rung
constexpr double kMaxLateMs = 5.0;        ///< p99 generator lateness of a valid rung
/// Latency quantiles are taken per chunk of this many consecutive samples
/// (10 beyond p99 each); a rung reports the lower quartile across its
/// chunks (kQuietQuantile). The end-to-end tail is p90: on a shared 4-vCPU
/// host the p99 of one run moves by more than the largest bound a metric
/// may have, the p90 does not.
constexpr std::size_t kTailChunk = 1000;
const char* const kTenant = "perfbench";
const std::vector<std::string> kFeatures = {"cpu_util_percent",
                                            "mem_util_percent"};

/// Cohorts cycle through tiny RPTCN, LSTM and ARIMA recipes.
models::ForecasterSpec cohort_spec(std::size_t cohort) {
  models::ForecasterSpec spec;
  switch (cohort % 3) {
    case 0:
      spec.name = "RPTCN";
      spec.config.rptcn.tcn.channels = {6, 6};
      spec.config.rptcn.fc_dim = 6;
      break;
    case 1:
      spec.name = "LSTM";
      spec.config.lstm.hidden = 8;
      break;
    default:
      spec.name = "ARIMA";
      return spec;
  }
  spec.config.nn.max_epochs = 4;
  spec.config.nn.patience = 2;
  spec.config.nn.seed = 9;
  return spec;
}

/// 2 ingest workers, 2 engine shards and 1 retrain slot: sized for a
/// 4-core host with one generator thread beside them.
fleet::FleetOptions fleet_options() {
  fleet::FleetOptions o;
  o.features = kFeatures;
  o.shards = 2;
  o.workers = 2;
  o.retrain_workers = 1;
  o.max_queued_ticks = 1024;
  o.max_entity_backlog = 8;
  o.channel.capacity = 512;
  o.freeze_normalizer_at_bootstrap = true;
  o.retrain.history = kBootstrapRows;
  o.retrain.window.window = kWindow;
  o.retrain.window.horizon = 1;
  o.retrain.min_ticks_between = 32;
  // Detector settings that catch the storm's level shift within a few
  // dozen ticks while calm AR(1) wander stays below the slack.
  o.drift.input_ph.delta = 0.2;
  o.drift.input_ph.lambda = 4.0;
  o.drift.input_ph.min_samples = 10;
  o.drift.residual_ph.delta = 0.1;
  o.drift.residual_ph.lambda = 3.0;
  o.drift.windowed.ratio_threshold = 4.0;
  // The level test is on: an entity refit just before a shift has freshly
  // reset detectors whose reference already holds shifted values, so PH
  // and the error ratio stay blind to that shift; a short-window mean
  // residual above 1 (scaler units; calm entities sit near 0.3) still fires.
  o.drift.windowed.level_threshold = 1.0;
  o.drift.windowed.short_window = 16;
  o.engine.max_batch = 64;
  o.engine.max_delay_us = 200;
  o.tenant = kTenant;
  return o;
}

/// One entity's load, generated row by row from its own seed, so its size
/// never depends on how long a run offers ticks. Every entity has its own
/// history, scaler and noise: fleet-wide averages such as forecast_mase
/// average over every entity rather than over a few cohort traces.
///
/// Calm load is AR(1) around a per-entity level (cpu near 25%, mem near
/// 40%, stationary standard deviation 3 points, persistence 0.85).
/// Stationary on purpose: the trace model's regime chain (idle, ramp and
/// burst phases) makes a seed-dependent share of entities drift, which
/// would make the refit load, and with it every latency figure, a property
/// of the seed.
///
/// A storm entity runs two bootstrap ranges hotter from `shift_row` on: a
/// level shift of +2 in its frozen scaler's units (capped at 100%).
class EntityStream {
 public:
  EntityStream(std::uint64_t seed, bool storm, std::size_t shift_row)
      : seed_(seed), storm_(storm), shift_row_(shift_row), rng_(seed) {
    rewind();
  }

  /// Back to row 0: the same rows again.
  void rewind() {
    rng_ = Rng(seed_);
    cpu_level_ = rng_.uniform(20.0, 30.0);
    mem_level_ = rng_.uniform(35.0, 45.0);
    cpu_ = rng_.normal(0.0, 3.0);
    mem_ = rng_.normal(0.0, 3.0);
    row_ = 0;
    lo_ = hi_ = last_cpu_ = 0.0;
  }

  /// The next row: {cpu, mem} in percent.
  std::vector<double> next() {
    constexpr double kPhi = 0.85;
    const double innovation = 3.0 * std::sqrt(1.0 - kPhi * kPhi);
    cpu_ = kPhi * cpu_ + rng_.normal(0.0, innovation);
    mem_ = kPhi * mem_ + rng_.normal(0.0, innovation);
    double cpu = cpu_level_ + cpu_;
    if (row_ < kBootstrapRows) {
      lo_ = row_ == 0 ? cpu : std::min(lo_, cpu);
      hi_ = row_ == 0 ? cpu : std::max(hi_, cpu);
    } else if (storm_ && row_ >= shift_row_) {
      cpu = std::min(100.0, cpu + 2.0 * cpu_range());
    }
    ++row_;
    last_cpu_ = cpu;
    return {cpu, mem_level_ + mem_};
  }

  /// cpu of the row next() returned last.
  double last_cpu() const { return last_cpu_; }
  /// Bootstrap max - min of cpu: the span of the entity's frozen scaler.
  double cpu_range() const { return std::max(1e-9, hi_ - lo_); }

 private:
  std::uint64_t seed_;
  bool storm_;
  std::size_t shift_row_;
  Rng rng_;
  double cpu_level_ = 0.0;
  double mem_level_ = 0.0;
  double cpu_ = 0.0;
  double mem_ = 0.0;
  std::size_t row_ = 0;
  double lo_ = 0.0;
  double hi_ = 0.0;
  double last_cpu_ = 0.0;
};

/// Entity i belongs to cohort i mod kCohorts.
std::vector<EntityStream> make_streams(std::uint64_t seed, std::size_t entities,
                                       const std::vector<std::size_t>& storm,
                                       std::size_t shift_row) {
  std::vector<EntityStream> out;
  for (std::size_t i = 0; i < entities; ++i)
    out.emplace_back(seed * 7919 + i,
                     std::find(storm.begin(), storm.end(), i % kCohorts) != storm.end(),
                     shift_row);
  return out;
}

/// An entity's first kBootstrapRows rows as a frame: a cohort's bootstrap
/// history.
data::TimeSeriesFrame head_frame(EntityStream s) {
  s.rewind();
  std::vector<double> cpu;
  std::vector<double> mem;
  for (std::size_t r = 0; r < kBootstrapRows; ++r) {
    const std::vector<double> row = s.next();
    cpu.push_back(row[0]);
    mem.push_back(row[1]);
  }
  data::TimeSeriesFrame f;
  f.add(kFeatures[0], std::move(cpu));
  f.add(kFeatures[1], std::move(mem));
  return f;
}

struct Fleet {
  std::unique_ptr<fleet::FleetManager> manager;
  std::vector<std::string> ids;        ///< entity index -> id
  std::vector<std::size_t> cohort_of;  ///< entity index -> cohort
};

std::string cohort_name(std::size_t c) { return "cohort-" + std::to_string(c); }

/// Offer every entity its first kBootstrapRows rows, round-robin, retrying
/// on backpressure: each entity's own history and scaler. Leaves every
/// stream at its first live row.
void ingest_history(fleet::FleetManager& fleet, const std::vector<std::string>& ids,
                    std::vector<EntityStream>& streams, Outcome& out) {
  for (EntityStream& st : streams) st.rewind();
  for (std::size_t row = 0; row < kBootstrapRows; ++row)
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::vector<double> values = streams[i].next();
      fleet::Admission v = fleet.ingest(ids[i], values);
      for (int retry = 0; v != fleet::Admission::kAccepted && retry < 10000; ++retry) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        v = fleet.ingest(ids[i], values);
      }
      out.check(v == fleet::Admission::kAccepted, "history tick not admitted");
    }
  fleet.drain();
}

/// Build the fleet, feed every entity its history and bootstrap every
/// cohort on its first member's history, kSetups times; keeps the last
/// fleet. Records each set-up's wall time and each cohort fit's.
Fleet set_up(std::size_t entities, std::vector<EntityStream>& streams,
             SpanRecorder& rec, Outcome& out, std::vector<double>& setup_s,
             std::vector<double>& fit_s) {
  Fleet f;
  for (int s = 0; s < kSetups; ++s) {
    f = Fleet{};  // the previous fleet shuts down outside the timed region
    ScopedSpan setup_span(rec, "fleet.setup");
    const double t0 = now_s();
    fleet::FleetBuilder builder;
    builder.options(fleet_options());
    for (std::size_t i = 0; i < entities; ++i) {
      fleet::EntitySpec spec;
      spec.id = "entity-" + std::to_string(i);
      spec.cohort = cohort_name(i % kCohorts);
      spec.model = cohort_spec(i % kCohorts);
      builder.add_entity(spec);
      f.ids.push_back(spec.id);
      f.cohort_of.push_back(i % kCohorts);
    }
    {
      ScopedSpan build_span(rec, "fleet.build", setup_span.index());
      f.manager = builder.build();
    }
    {
      ScopedSpan history_span(rec, "fleet.history", setup_span.index());
      ingest_history(*f.manager, f.ids, streams, out);
    }
    for (std::size_t c = 0; c < kCohorts; ++c) {
      ScopedSpan fit_span(rec, "fleet.bootstrap_cohort", setup_span.index(), c);
      const double tf = now_s();
      const stream::RetrainOutcome r = f.manager->bootstrap_cohort(
          cohort_name(c), head_frame(streams[c]), /*seed_history=*/false);
      fit_s.push_back(now_s() - tf);
      out.check(r.error.empty(), "bootstrap of " + cohort_name(c) + ": " + r.error);
    }
    setup_s.push_back(now_s() - t0);
    out.check(f.manager->stats().unique_snapshots == kCohorts,
              "unique_snapshots after bootstrap != cohort count");
  }
  return f;
}

/// The open-loop generator. Tick k goes to entity k mod N and carries that
/// entity's next row (row kBootstrapRows + k / N), so every entity's rows
/// continue its history in order across rungs.
class Generator {
 public:
  Generator(Fleet& fleet, std::vector<EntityStream>& streams, SpanRecorder& rec)
      : fleet_(fleet), streams_(streams), rec_(rec),
        depth_(obs::metrics().gauge("fleet/queue_depth", kTenant)),
        naive_sum_(fleet.ids.size(), 0.0), naive_n_(fleet.ids.size(), 0) {
    ingest_us_.reserve(1 << 16);
  }

  std::uint64_t next_tick() const { return next_tick_; }

  /// Offer `rate` ticks/s for `seconds`, then drain. `poll` runs about
  /// every 20 ms on the generator thread with the current time; returning
  /// false from it ends the rung early.
  RungResult run(double rate, double seconds, int parent,
                 const std::function<bool(double)>& poll = {}) {
    RungResult r;
    r.offered_per_s = rate;
    r.seconds = seconds;
    const ObsView before = read_obs();
    const std::size_t lat_before = fleet_.manager->latencies_seconds().size();
    const std::uint64_t count = static_cast<std::uint64_t>(rate * seconds);
    std::vector<double> late;
    late.reserve(count);
    const double t0 = now_s();
    double next_poll = t0;
    std::uint64_t k = 0;
    while (k < count) {
      const double due = t0 + static_cast<double>(k) / rate;
      double now = now_s();
      if (now < due) {
        // Sleep, never spin: the generator shares the cores it loads.
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
        continue;
      }
      const std::uint64_t tick = next_tick_++;
      const std::size_t e = tick % fleet_.ids.size();
      EntityStream& st = streams_[e];
      const double prev_cpu = st.last_cpu();
      std::vector<double> values = st.next();
      const double cpu = values[0];
      const int span = rec_.begin("fleet.ingest", parent, tick);
      const double ti = now_s();
      const fleet::Admission verdict =
          fleet_.manager->ingest(fleet_.ids[e], std::move(values));
      const double te = now_s();
      rec_.end(span);
      // Every 8th tick's admission time: a bounded sample whose size does
      // not grow the process with the run's length.
      if (tick % 8 == 0 && ingest_us_.size() < ingest_us_.capacity())
        ingest_us_.push_back((te - ti) * 1e6);
      ++r.sent;
      if (verdict == fleet::Admission::kAccepted) {
        ++r.accepted;
        naive_sum_[e] += std::abs(cpu - prev_cpu) / st.cpu_range();
        ++naive_n_[e];
      } else {
        ++r.shed;
        ++verdicts_[static_cast<int>(verdict)];
      }
      late.push_back(now - due);
      ++k;
      if (te >= next_poll) {
        next_poll = te + 0.02;
        r.backlog.push_back(depth_.value());
        if (poll && !poll(te)) break;
      }
    }
    const double td = now_s();
    r.elapsed_s = td - t0;
    {
      ScopedSpan drain_span(rec_, "fleet.drain", parent);
      fleet_.manager->drain();
    }
    drain_ms_.push_back((now_s() - td) * 1e3);

    const ObsView after = read_obs();
    r.failed = static_cast<std::uint64_t>(
        obs_delta(before, after, "fleet/forecast_failures_total"));
    std::vector<double> lat = fleet_.manager->latencies_seconds();
    lat.erase(lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(lat_before));
    for (double& v : lat) v *= 1e3;
    r.latencies = lat.size();
    r.chunks_p50 = chunk_quantiles(lat, 0.50, kTailChunk);
    r.chunks_p90 = chunk_quantiles(lat, 0.90, kTailChunk);
    r.chunks_p99 = chunk_quantiles(lat, 0.99, kTailChunk);
    r.p50_ms = quantile(r.chunks_p50, kQuietQuantile);
    r.p90_ms = quantile(r.chunks_p90, kQuietQuantile);
    r.p99_ms = quantile(r.chunks_p99, kQuietQuantile);
    r.mean_ms = mean(lat);
    r.queue_wait_us = obs_mean(before, after, "serve/queue_wait_seconds") * 1e6;
    r.forward_us = obs_mean(before, after, "serve/forward_seconds") * 1e6;
    for (double& v : late) v *= 1e3;
    r.gen_late_p99_ms = quantile(late, 0.99);
    return r;
  }

  const std::vector<double>& ingest_us() const { return ingest_us_; }
  const std::vector<double>& drain_ms() const { return drain_ms_; }
  std::uint64_t verdicts(fleet::Admission a) const {
    const auto it = verdicts_.find(static_cast<int>(a));
    return it == verdicts_.end() ? 0 : it->second;
  }
  /// Mean absolute error, in the frozen scaler's units, of forecasting each
  /// entity's accepted ticks with its previous value.
  double naive_mae(std::size_t entity) const {
    return naive_n_[entity] ? naive_sum_[entity] / static_cast<double>(naive_n_[entity]) : 0.0;
  }

 private:
  Fleet& fleet_;
  std::vector<EntityStream>& streams_;
  SpanRecorder& rec_;
  obs::Gauge& depth_;
  std::uint64_t next_tick_ = 0;
  std::vector<double> ingest_us_;
  std::vector<double> drain_ms_;
  std::map<int, std::uint64_t> verdicts_;
  std::vector<double> naive_sum_;
  std::vector<std::uint64_t> naive_n_;
};

void print_rung(const char* phase, const RungResult& r, bool valid,
                bool sustainable) {
  std::cout << "{\"rung\": {\"phase\": " << json_string(phase)
            << ", \"offered_per_s\": " << r.offered_per_s
            << ", \"sent\": " << r.sent << ", \"accepted\": " << r.accepted
            << ", \"shed\": " << r.shed << ", \"failed\": " << r.failed
            << ", \"latencies\": " << r.latencies << ", \"p50_ms\": " << r.p50_ms
            << ", \"p90_ms\": " << r.p90_ms << ", \"p99_ms\": " << r.p99_ms
            << ", \"gen_late_p99_ms\": " << r.gen_late_p99_ms
            << ", \"backlog_max\": "
            << (r.backlog.empty() ? 0.0
                                  : *std::max_element(r.backlog.begin(),
                                                      r.backlog.end()))
            << ", \"valid\": " << (valid ? "true" : "false")
            << ", \"sustainable\": " << (sustainable ? "true" : "false")
            << "}}\n";
}

/// Checks shared by both fleet workloads, run after the last drain:
/// every accepted tick is accounted for and every forecast is finite.
/// Returns the number of non-finite forecasts.
std::uint64_t check_fleet(const Fleet& f, const fleet::FleetStats& base,
                          std::uint64_t gen_accepted, Outcome& out) {
  const fleet::FleetStats s = f.manager->stats();
  const std::uint64_t accepted = s.ticks_accepted - base.ticks_accepted;
  const std::uint64_t dropped = s.ticks_dropped - base.ticks_dropped;
  const std::uint64_t forecasts = s.forecasts - base.forecasts;
  const std::uint64_t failures = s.forecast_failures - base.forecast_failures;
  out.check(gen_accepted == accepted + dropped,
            "admitted ticks " + std::to_string(gen_accepted) +
                " != processed " + std::to_string(accepted) + " + dropped " +
                std::to_string(dropped));
  // Every member's channel holds the bootstrap rows, so each complete tick
  // has a full window and yields a forecast or a counted failure.
  out.check(accepted == forecasts + failures,
            "accepted ticks " + std::to_string(accepted) + " != forecasts " +
                std::to_string(forecasts) + " + failures " +
                std::to_string(failures));
  std::uint64_t non_finite = 0;
  const auto latest = f.manager->latest_forecasts();
  for (const fleet::EntityForecast& e : latest)
    if (!std::isfinite(e.predicted_norm) || !std::isfinite(e.predicted_raw))
      ++non_finite;
  out.check(non_finite == 0, std::to_string(non_finite) + " non-finite forecasts");
  out.check(latest.size() == f.ids.size(),
            "entities without a forecast: " +
                std::to_string(f.ids.size() - latest.size()));
  return non_finite;
}

/// Mean absolute scaled error: the fleet's one-step forecast error over the
/// error of repeating the last value, both summed over every entity.
double forecast_mase(const Fleet& f, const Generator& gen) {
  double model = 0.0;
  double naive = 0.0;
  for (std::size_t i = 0; i < f.ids.size(); ++i) {
    model += f.manager->entity_stats(f.ids[i]).mean_abs_residual;
    naive += gen.naive_mae(i);
  }
  return model / naive;
}

/// Layer probes run after the measured window of a traced run: gated fits
/// of the RPTCN and LSTM cohort recipes, and the fitted sessions timed
/// alone, in a batch and behind an idle engine.
void probe_layers(const std::vector<EntityStream>& streams, std::uint64_t seed,
                  SpanRecorder& rec, Outcome& out) {
  const fleet::FleetOptions fo = fleet_options();
  std::vector<double> fit_s;
  double step_s = 0.0;
  double batches = 0.0;
  const char* const names[] = {"rptcn", "lstm"};
  for (std::size_t c = 0; c < 2; ++c) {
    const data::TimeSeriesFrame head = head_frame(streams[c]);
    stream::OnlineNormalizer norm(kFeatures);
    for (std::size_t row = 0; row < kBootstrapRows; ++row)
      norm.observe({head.column(kFeatures[0])[row], head.column(kFeatures[1])[row]});
    norm.freeze();
    stream::RetrainOptions ro = fo.retrain;
    ro.model_name = cohort_spec(c).name;
    ro.model = cohort_spec(c).config;
    std::shared_ptr<const serve::InferenceSession> session;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span(rec, "stream.fit_generation");
      const ObsView b = read_obs();
      const double t = now_s();
      const stream::FittedGeneration g = stream::fit_generation(
          head, norm, ro, static_cast<std::uint64_t>(i + 1), "probe");
      const double dt = now_s() - t;
      const ObsView a = read_obs();
      out.check(g.session != nullptr, "probe fit failed: " + g.outcome.error);
      fit_s.push_back(dt);
      step_s += dt;
      batches += obs_delta(b, a, "trainer/batches_total");
      session = g.session;
    }
    if (session == nullptr) continue;
    const SessionProbe p =
        probe_session(session, kFeatures.size(), kWindow, c == 0, seed);
    out.check(p.finite, "probe forecasts not finite");
    out.layers[std::string("serve.run_us_n1.") + names[c]] = p.run_us_n1;
    out.layers[std::string("serve.run_us_n64.") + names[c]] = p.run_us_n64;
    if (c == 0) {
      out.layers["serve.engine_lone_us_p50"] = p.engine_lone_us;
      out.layers["tensor.gemm_flops_per_forecast"] = p.gemm_flops_per_forecast;
    }
  }
  out.layers["stream.fit_generation_s_p50"] = median(fit_s);
  out.layers["graph.train_step_ms"] = batches > 0 ? step_s / batches * 1e3 : 0.0;
}

/// Per-layer figures read from the obs registry over the measured window.
/// Per-layer figures read from the obs registry over the measured window.
void window_layers(const ObsView& before, const ObsView& after, Outcome& out) {
  registry_layers(before, after, out.layers);
  const double batches = obs_delta(before, after, "serve/batches");
  out.layers["serve.avg_batch"] =
      batches > 0 ? obs_delta(before, after, "serve/requests") / batches : 0.0;
  out.layers["stream.drift_events"] = obs_delta(before, after, "fleet/drift_events");
  out.layers["fleet.retrain_fit_s_mean"] = obs_mean(before, after, "fleet/retrain_seconds");
}

/// Where the mean tick of the fixed-rate rung went: engine queue wait and
/// forward from the registry's histograms; the rest is mailbox wait, the
/// worker's channel, normaliser and drift work, and future delivery.
void tick_attribution(const RungResult& r, Outcome& out) {
  out.layers["serve.queue_wait_us_mean"] = r.queue_wait_us;
  out.layers["serve.forward_us_mean"] = r.forward_us;
  out.layers["fleet.mailbox_us_mean"] = r.mean_ms * 1e3 - r.queue_wait_us - r.forward_us;
}

void fleet_common_layers(const Fleet& f, const Generator& gen,
                         const std::vector<double>& fit_s,
                         std::uint64_t retrain_queue_max, Outcome& out) {
  out.layers["fleet.ingest_us_p50"] = quantile(gen.ingest_us(), 0.50);
  out.layers["fleet.ingest_us_p99"] = quantile(gen.ingest_us(), 0.99);
  out.layers["fleet.drain_ms"] = median(gen.drain_ms());
  out.layers["fleet.bootstrap_fit_s"] = median(fit_s);
  const fleet::FleetStats s = f.manager->stats();
  out.layers["fleet.snapshots_per_entity"] =
      static_cast<double>(s.unique_snapshots) / static_cast<double>(f.ids.size());
  const fleet::SchedulerStats sched = f.manager->scheduler().stats();
  out.layers["fleet.retrains_completed"] = static_cast<double>(s.retrains_completed);
  out.layers["fleet.retrain_queue_max"] = static_cast<double>(retrain_queue_max);
  out.layers["fleet.retrain_rejected_full"] = static_cast<double>(sched.rejected_full);
  const double attempts =
      static_cast<double>(s.retrains_completed + s.retrains_failed);
  out.layers["stream.gate_reject_share"] =
      attempts > 0 ? static_cast<double>(s.retrains_failed) / attempts : 0.0;
}

}  // namespace

Outcome run_fleet_steady(const RunArgs& args, SpanRecorder& rec) {
  Outcome out;
  constexpr std::size_t kEntities = 1000;
  constexpr double kStart = 2000.0;
  constexpr double kFactor = 1.25;
  constexpr double kCeiling = 40000.0;  // > 5x the capacity at this size
  constexpr int kRefine = 3;
  constexpr int kProbes = 4;            // fixed-rate + overload pairs
  constexpr int kRungsPerProbe = 5;     // ladder rungs between two pairs
  const double rung_s = std::max(0.5, args.seconds / 16.0);
  // 4000 latencies (4 chunks) per fixed-rate rung at --seconds 20.
  const double fixed_s = std::max(rung_s, args.seconds / 10.0);
  std::vector<EntityStream> streams = make_streams(args.seed, kEntities, {}, 0);

  std::vector<double> setup_s;
  std::vector<double> fit_s;
  Fleet f = set_up(kEntities, streams, rec, out, setup_s, fit_s);
  const fleet::FleetStats base = f.manager->stats();
  Generator gen(f, streams, rec);

  // Warm-up: plans captured, pools filled; not scored.
  std::uint64_t gen_accepted = gen.run(kStart, 0.5, -1).accepted;

  const ObsView before = read_obs();
  std::vector<RungResult> scored;  ///< ladder rungs
  std::vector<bool> passed;        ///< per ladder rung: valid and sustainable
  std::uint64_t retrain_queue_max = 0;
  double late_max = 0.0;
  const auto run_rung = [&](const char* phase, double rate, double seconds) {
    const int span = rec.begin("fleet.rung", -1, static_cast<std::uint64_t>(rate));
    const RungResult r = gen.run(rate, seconds, span);
    rec.end(span);
    gen_accepted += r.accepted;
    const bool valid = rung_valid(r, kMaxLateMs);
    const bool ok = valid && rung_sustainable(r, kLatencyLimitMs);
    print_rung(phase, r, valid, ok);
    retrain_queue_max = std::max<std::uint64_t>(
        retrain_queue_max, f.manager->scheduler().stats().queued);
    return std::make_pair(r, ok);
  };

  // Probe pairs, spread through the run so that they sample the host at
  // several points: a fixed-rate rung at 2000 ticks/s (the latency
  // measurement; run again, up to twice, when the generator fell behind),
  // then an overload rung at the ceiling, whose drain is the recovery time.
  std::vector<RungResult> fixed;
  std::vector<double> saturated;
  std::vector<double> overload_drain_s;
  std::uint64_t overload_sent = 0;
  double fixed_rss_mb = 0.0;
  const auto probe = [&] {
    RungResult r;
    for (int attempt = 0; attempt < 3; ++attempt) {
      r = run_rung("fixed", kStart, fixed_s).first;
      if (rung_valid(r, kMaxLateMs)) break;
    }
    fixed.push_back(r);
    if (fixed.size() == 1) fixed_rss_mb = peak_rss_mb();
    const RungResult over = run_rung("overload", kCeiling, rung_s).first;
    overload_sent += over.sent;
    saturated.push_back(static_cast<double>(over.accepted) / over.seconds);
    overload_drain_s.push_back(gen.drain_ms().back() * 1e-3);
  };

  probe();
  RateLadder ladder(kStart, kFactor, kCeiling, kRefine);
  int since_probe = 0;
  while (!ladder.done()) {
    const double rate = ladder.rate();
    // A host stall can sink a rung or two; a rate fails only when three
    // rungs at that rate fail.
    bool ok = false;
    for (int attempt = 0; !ok && attempt < 3; ++attempt) {
      const auto [r, pass] = run_rung("ladder", rate, rung_s);
      ok = pass;
      scored.push_back(r);
      passed.push_back(pass);
      if (rung_valid(r, kMaxLateMs)) late_max = std::max(late_max, r.gen_late_p99_ms);
      if (++since_probe == kRungsPerProbe && fixed.size() < kProbes) {
        probe();
        since_probe = 0;
      }
    }
    ladder.record(ok);
  }
  while (fixed.size() < kProbes) probe();
  const double sustainable = ladder.sustainable();
  const ObsView after = read_obs();

  const std::uint64_t non_finite = check_fleet(f, base, gen_accepted, out);

  // The fixed-rate probes' chunks pooled: 16 chunks of 1000 ticks at
  // --seconds 20, from four points of the run.
  std::vector<double> p50, p90, p99;
  for (const RungResult& r : fixed) {
    out.attempted += r.sent;
    out.failed += r.shed + r.failed;
    out.check(highest_percentile(r.latencies) >= 99.0,
              "too few samples for p99 at a fixed-rate rung");
    p50.insert(p50.end(), r.chunks_p50.begin(), r.chunks_p50.end());
    p90.insert(p90.end(), r.chunks_p90.begin(), r.chunks_p90.end());
    p99.insert(p99.end(), r.chunks_p99.begin(), r.chunks_p99.end());
  }
  for (const RungResult& r : scored) {
    if (r.offered_per_s > sustainable) continue;
    out.attempted += r.sent;
    out.failed += r.shed + r.failed;
  }
  out.failed += non_finite;
  out.check(sustainable > 0.0, "no sustainable rung: even " +
                                   std::to_string(kStart) + " ticks/s missed");

  out.e2e["setup_s"] = median(setup_s);
  // Peak RSS through set-up and the first fixed-rate rung: the ladder's
  // length varies from run to run, and the process grows with every rung
  // above capacity (reported as fleet.rss_growth_mb).
  out.e2e["peak_rss_mb"] = fixed_rss_mb;
  out.layers["fleet.rss_growth_mb"] = peak_rss_mb() - fixed_rss_mb;
  out.e2e["p50_ms"] = quantile(p50, kQuietQuantile);
  out.e2e["p90_ms"] = quantile(p90, kQuietQuantile);
  out.layers["fleet.tick_p99_ms"] = quantile(p99, kQuietQuantile);
  // The rate the fleet carried on the (last) passing rung at the
  // sustainable rate: accepted ticks over the rung's measured send window.
  for (std::size_t i = 0; i < scored.size(); ++i)
    if (passed[i] && scored[i].offered_per_s == sustainable)
      out.e2e["throughput_per_s"] =
          static_cast<double>(scored[i].accepted) / scored[i].elapsed_s;
  // Overload recovery: the backlog an overload leaves behind, cleared.
  out.e2e["recovery_s"] = quantile(overload_drain_s, kQuietQuantile);
  out.layers["models.forecast_mase"] = forecast_mase(f, gen);

  print_context(args, {{"entities", std::to_string(kEntities)},
                       {"cohorts", std::to_string(kCohorts)},
                       {"rung_s", std::to_string(rung_s)},
                       {"latency_limit_ms", std::to_string(kLatencyLimitMs)},
                       {"sustainable_per_s", std::to_string(sustainable)},
                       {"ladder_hit_ceiling", ladder.hit_ceiling() ? "true" : "false"}});

  out.layers["fleet.saturated_ticks_per_s"] = median(saturated);
  double offered = static_cast<double>(overload_sent);
  for (const RungResult& r : scored) offered += static_cast<double>(r.sent);
  for (const RungResult& r : fixed) offered += static_cast<double>(r.sent);
  out.layers["fleet.reject_share.queue_full"] =
      static_cast<double>(gen.verdicts(fleet::Admission::kQueueFull)) / offered;
  out.layers["fleet.reject_share.backlog_full"] =
      static_cast<double>(gen.verdicts(fleet::Admission::kBacklogFull)) / offered;
  double backlog_max = 0.0;
  for (const auto* rungs : {&scored, &fixed})
    for (const RungResult& r : *rungs)
      for (const double b : r.backlog) backlog_max = std::max(backlog_max, b);
  out.layers["fleet.backlog_max"] = backlog_max;
  out.layers["fleet.gen_late_p99_ms"] = late_max;
  window_layers(before, after, out);
  tick_attribution(fixed.front(), out);
  fleet_common_layers(f, gen, fit_s, retrain_queue_max, out);
  if (args.trace) probe_layers(streams, args.seed, rec, out);
  return out;
}

Outcome run_fleet_storm(const RunArgs& args, SpanRecorder& rec) {
  Outcome out;
  constexpr std::size_t kEntities = 256;
  constexpr double kRate = 2000.0;
  constexpr double kLeadIn = 2.0;         // calm seconds before the shift
  constexpr double kMaxSeconds = 90.0;    // give up on recovery after this
  const std::vector<std::size_t> storm = {0, 1};  // one RPTCN, one LSTM cohort
  const std::size_t lead_rows =
      static_cast<std::size_t>(std::ceil(kRate * kLeadIn / kEntities));
  const std::size_t shift_row = kBootstrapRows + lead_rows;
  std::vector<EntityStream> streams =
      make_streams(args.seed, kEntities, storm, shift_row);

  std::vector<double> setup_s;
  std::vector<double> fit_s;
  Fleet f = set_up(kEntities, streams, rec, out, setup_s, fit_s);
  const fleet::FleetStats base = f.manager->stats();
  Generator gen(f, streams, rec);

  std::vector<std::size_t> storm_entities;
  std::vector<std::size_t> calm_entities;
  for (std::size_t i = 0; i < kEntities; ++i) {
    const bool s = std::find(storm.begin(), storm.end(), f.cohort_of[i]) != storm.end();
    (s ? storm_entities : calm_entities).push_back(i);
  }
  // Row r reaches entity e at global tick (r - kBootstrapRows) * N + e, and
  // entity 0 is a storm entity: the first shifted tick is lead_rows * N.
  const std::uint64_t shift_tick = static_cast<std::uint64_t>(lead_rows) * kEntities;
  std::vector<std::uint64_t> gen_at_shift(kEntities, 0);
  double t_shift = 0.0;
  double t_recovered = 0.0;
  std::uint64_t retrain_queue_max = 0;
  const double t_start = now_s();
  const auto poll = [&](double now) {
    retrain_queue_max = std::max<std::uint64_t>(
        retrain_queue_max, f.manager->scheduler().stats().queued);
    if (t_shift == 0.0) {
      if (gen.next_tick() <= shift_tick) {
        for (const std::size_t i : storm_entities)
          gen_at_shift[i] = f.manager->entity_stats(f.ids[i]).generation;
        return true;
      }
      t_shift = now;
    }
    if (t_recovered == 0.0) {
      bool all = true;
      for (const std::size_t i : storm_entities)
        if (f.manager->entity_stats(f.ids[i]).generation <= gen_at_shift[i]) {
          all = false;
          break;
        }
      if (all) t_recovered = now;
    }
    // Keep offering until --seconds have passed and the storm recovered.
    return t_recovered == 0.0 || now - t_start < args.seconds;
  };

  const ObsView before = read_obs();
  const int span = rec.begin("fleet.rung", -1, static_cast<std::uint64_t>(kRate));
  const double t0 = now_s();
  const RungResult r = gen.run(kRate, kMaxSeconds, span, poll);
  const double wall = now_s() - t0;
  rec.end(span);
  const ObsView after = read_obs();
  const bool valid = rung_valid(r, kMaxLateMs);
  print_rung("storm", r, valid, rung_sustainable(r, kLatencyLimitMs));

  const std::uint64_t non_finite = check_fleet(f, base, r.accepted, out);
  out.check(t_recovered > 0.0, "storm cohorts did not recover within " +
                                   std::to_string(kMaxSeconds) + " s");
  out.check(highest_percentile(r.latencies) >= 99.0, "too few samples for p99");
  out.attempted = r.sent;
  out.failed = r.shed + r.failed + non_finite;

  std::size_t false_splinters = 0;
  for (const std::size_t i : calm_entities)
    if (!f.manager->entity_stats(f.ids[i]).shares_cohort_session) ++false_splinters;

  out.e2e["setup_s"] = median(setup_s);
  out.e2e["p50_ms"] = r.p50_ms;
  out.e2e["p90_ms"] = r.p90_ms;
  out.layers["fleet.tick_p99_ms"] = r.p99_ms;
  out.e2e["throughput_per_s"] = static_cast<double>(r.accepted) / wall;
  out.e2e["recovery_s"] = t_recovered - t_shift;
  out.layers["models.forecast_mase"] = forecast_mase(f, gen);

  print_context(args, {{"entities", std::to_string(kEntities)},
                       {"cohorts", std::to_string(kCohorts)},
                       {"storm_entities", std::to_string(storm_entities.size())},
                       {"offered_per_s", std::to_string(kRate)},
                       {"live_s", std::to_string(wall)}});

  out.layers["fleet.false_splinter_share"] =
      static_cast<double>(false_splinters) / static_cast<double>(calm_entities.size());
  out.layers["fleet.reject_share.queue_full"] =
      static_cast<double>(gen.verdicts(fleet::Admission::kQueueFull)) /
      static_cast<double>(std::max<std::uint64_t>(1, r.sent));
  out.layers["fleet.reject_share.backlog_full"] =
      static_cast<double>(gen.verdicts(fleet::Admission::kBacklogFull)) /
      static_cast<double>(std::max<std::uint64_t>(1, r.sent));
  out.layers["fleet.backlog_max"] =
      r.backlog.empty() ? 0.0 : *std::max_element(r.backlog.begin(), r.backlog.end());
  out.layers["fleet.gen_late_p99_ms"] = r.gen_late_p99_ms;
  window_layers(before, after, out);
  tick_attribution(r, out);
  fleet_common_layers(f, gen, fit_s, retrain_queue_max, out);
  if (args.trace) probe_layers(streams, args.seed, rec, out);
  return out;
}

}  // namespace perfbench
