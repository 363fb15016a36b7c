// Streaming subsystem tests: ring buffer semantics, online-vs-batch
// normalizer bit parity on a replayed prefix, normalizer checkpointing,
// drift detector behaviour, hot-swap under concurrent submit load, the
// rolling retrainer's bit-consistent swap (post-swap predictions equal a
// freshly restored model's), and the OnlinePipeline end-to-end loop
// (detect -> retrain in background without stalling ingest -> hot-swap).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "common/check.h"
#include "data/preprocess.h"
#include "data/windowing.h"
#include "models/registry.h"
#include "nn/rptcn_net.h"
#include "serve/engine.h"
#include "stream/channel.h"
#include "stream/drift.h"
#include "stream/normalizer.h"
#include "stream/pipeline.h"
#include "stream/retrain.h"
#include "stream/ring_buffer.h"
#include "stream/source.h"

namespace rptcn::stream {
namespace {

const std::vector<std::string> kFeatures = {"cpu_util_percent",
                                            "mem_util_percent"};

trace::WorkloadParams regime_a() {
  trace::WorkloadParams p;
  p.base_level = 0.25;
  p.diurnal_amplitude = 0.10;
  p.noise_sigma = 0.03;
  p.ar_coefficient = 0.85;
  p.mutation_rate = 0.0;
  p.burst_rate = 0.0;
  return p;
}

trace::WorkloadParams regime_b() {
  trace::WorkloadParams p = regime_a();
  p.base_level = 0.65;
  p.diurnal_amplitude = 0.03;
  p.noise_sigma = 0.08;
  p.ar_coefficient = 0.55;
  return p;
}

data::TimeSeriesFrame single_regime_trace(std::size_t length,
                                          std::uint64_t seed) {
  return make_mutating_trace(regime_a(), regime_a(), length, 0, seed).frame;
}

/// Tiny RPTCN: the stream tests need fitted weights fast, not accuracy.
models::ModelConfig tiny_config() {
  models::ModelConfig cfg;
  cfg.nn.max_epochs = 2;
  cfg.nn.patience = 2;
  cfg.nn.seed = 9;
  cfg.rptcn.tcn.channels = {6, 6};
  cfg.rptcn.fc_dim = 6;
  return cfg;
}

RetrainOptions tiny_retrain(std::size_t history = 200) {
  RetrainOptions r;
  r.model_name = "RPTCN";
  r.model = tiny_config();
  r.history = history;
  r.window.window = 16;
  r.window.horizon = 1;
  r.min_ticks_between = 0;
  return r;
}

// ---------------------------------------------------------------------------
// RingBuffer
// ---------------------------------------------------------------------------

TEST(StreamRing, OverwritesOldestAndIndexesOldestFirst) {
  RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.empty());
  ring.push(1);
  ring.push(2);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0], 1);
  EXPECT_EQ(ring.back(), 2);
  ring.push(3);
  ring.push(4);  // evicts 1
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total(), 4u);
  EXPECT_EQ(ring[0], 2);
  EXPECT_EQ(ring[1], 3);
  EXPECT_EQ(ring[2], 4);
  EXPECT_EQ(ring.back(), 4);
}

TEST(StreamRing, TailReturnsTrailingValuesOldestFirst) {
  RingBuffer<double> ring(4);
  for (int i = 0; i < 7; ++i) ring.push(static_cast<double>(i));
  const auto tail = ring.tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0], 4.0);
  EXPECT_EQ(tail[1], 5.0);
  EXPECT_EQ(tail[2], 6.0);
}

// ---------------------------------------------------------------------------
// OnlineNormalizer vs the batch data:: path
// ---------------------------------------------------------------------------

TEST(StreamNormalizer, MinMaxStateBitMatchesBatchScalerFit) {
  data::TimeSeriesFrame full = single_regime_trace(300, 11);
  // Punch NaNs into kept features (rows must be dropped) and into an
  // ignored indicator (rows must be kept).
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  full.column_mut(full.index_of("cpu_util_percent"))[40] = kNan;
  full.column_mut(full.index_of("mem_util_percent"))[120] = kNan;
  full.column_mut(full.index_of("disk_io_percent"))[7] = kNan;

  StreamSource source(std::make_unique<ReplayProvider>(full),
                      SourceOptions{kFeatures, 512, {}});
  while (source.poll()) {
  }
  EXPECT_EQ(source.dropped(), 2u);
  EXPECT_EQ(source.ticks(), 298u);

  // Batch path on the same prefix: select the kept features, then drop
  // incomplete rows, then fit eq. 1 bounds.
  const data::TimeSeriesFrame cleaned =
      data::clean_drop_incomplete(full.select(kFeatures));
  data::MinMaxScaler scaler;
  scaler.fit(cleaned);

  const OnlineNormalizer& norm = source.normalizer();
  ASSERT_EQ(norm.count(), cleaned.length());
  for (std::size_t f = 0; f < kFeatures.size(); ++f) {
    EXPECT_EQ(norm.min_of(f), scaler.min_of(kFeatures[f]));
    EXPECT_EQ(norm.max_of(f), scaler.max_of(kFeatures[f]));
  }

  // And the transform arithmetic agrees value-for-value.
  const data::TimeSeriesFrame batch_norm = scaler.transform(cleaned);
  for (std::size_t f = 0; f < kFeatures.size(); ++f) {
    const auto& raw = cleaned.column(f);
    const auto& ref = batch_norm.column(f);
    for (std::size_t t = 0; t < raw.size(); ++t)
      ASSERT_EQ(norm.normalize(f, raw[t]), ref[t])
          << kFeatures[f] << " row " << t;
  }
}

TEST(StreamNormalizer, LatestWindowBitMatchesBatchMakeWindows) {
  const std::size_t kLen = 160;
  const data::TimeSeriesFrame full = single_regime_trace(kLen, 13);
  StreamSource source(std::make_unique<ReplayProvider>(full),
                      SourceOptions{kFeatures, 512, {}});
  // Ingest a strict prefix so make_windows' final sample (which must leave
  // one horizon step after it) aligns exactly with latest_window.
  source.ingest(kLen - 1);

  data::WindowOptions wopt;
  wopt.window = 24;
  wopt.horizon = 1;
  const data::TimeSeriesFrame sel = full.select(kFeatures);
  data::MinMaxScaler scaler;
  scaler.fit_range(sel, 0, kLen - 1);
  const auto windows = data::make_windows(scaler.transform(sel),
                                          "cpu_util_percent", wopt);
  const std::size_t last = windows.samples() - 1;

  const Tensor lw = source.latest_window(wopt.window);
  ASSERT_EQ(lw.dim(0), kFeatures.size());
  ASSERT_EQ(lw.dim(1), wopt.window);
  for (std::size_t f = 0; f < kFeatures.size(); ++f)
    for (std::size_t t = 0; t < wopt.window; ++t)
      ASSERT_EQ(lw.at(f, t), windows.inputs.at(last, f, t))
          << "feature " << f << " step " << t
          << ": online window drifted from the batch pipeline";
}

TEST(StreamNormalizer, CheckpointRoundTripsBitExactly) {
  data::TimeSeriesFrame full = single_regime_trace(220, 17);
  OnlineNormalizer norm(kFeatures);
  std::vector<double> row(kFeatures.size());
  for (std::size_t t = 0; t < full.length(); ++t) {
    for (std::size_t f = 0; f < kFeatures.size(); ++f)
      row[f] = full.column(kFeatures[f])[t];
    norm.observe(row);
  }

  const std::string path = ::testing::TempDir() + "stream_norm.ckpt";
  ASSERT_EQ(norm.save(path), models::CheckpointStatus::kOk);

  OnlineNormalizer loaded;
  ASSERT_EQ(loaded.restore(path), models::CheckpointStatus::kOk);
  ASSERT_EQ(loaded.count(), norm.count());
  ASSERT_EQ(loaded.names(), norm.names());
  for (std::size_t f = 0; f < kFeatures.size(); ++f) {
    EXPECT_EQ(loaded.min_of(f), norm.min_of(f));
    EXPECT_EQ(loaded.max_of(f), norm.max_of(f));
    EXPECT_EQ(loaded.mean_of(f), norm.mean_of(f));
    EXPECT_EQ(loaded.var_of(f), norm.var_of(f));
    EXPECT_EQ(loaded.normalize(f, 0.37), norm.normalize(f, 0.37));
  }
}

TEST(StreamNormalizer, RestoreRejectsMissingMalformedAndMismatched) {
  OnlineNormalizer fresh;
  EXPECT_EQ(fresh.restore(::testing::TempDir() + "does_not_exist.ckpt"),
            models::CheckpointStatus::kIoError);

  const std::string garbage = ::testing::TempDir() + "stream_garbage.ckpt";
  {
    std::ofstream out(garbage);
    out << "not a normalizer checkpoint\n";
  }
  EXPECT_EQ(fresh.restore(garbage), models::CheckpointStatus::kIoError);

  // A normalizer already bound to different names must refuse the state and
  // keep its own.
  OnlineNormalizer norm(kFeatures);
  norm.observe({0.5, 0.5});
  const std::string path = ::testing::TempDir() + "stream_norm_ab.ckpt";
  ASSERT_EQ(norm.save(path), models::CheckpointStatus::kOk);

  OnlineNormalizer other({"net_in", "net_out"});
  other.observe({0.1, 0.2});
  EXPECT_EQ(other.restore(path), models::CheckpointStatus::kShapeMismatch);
  EXPECT_EQ(other.count(), 1u);
  EXPECT_EQ(other.names()[0], "net_in");
}

// ---------------------------------------------------------------------------
// Drift detectors
// ---------------------------------------------------------------------------

TEST(StreamDrift, PageHinkleyFiresOnLevelShiftOnly) {
  PageHinkley stationary;
  for (int i = 0; i < 400; ++i)
    EXPECT_FALSE(stationary.update(0.1 + 0.01 * std::sin(i * 0.3)));

  PageHinkley shifted;
  for (int i = 0; i < 200; ++i)
    ASSERT_FALSE(shifted.update(0.1 + 0.01 * std::sin(i * 0.3)));
  bool fired = false;
  for (int i = 0; i < 50 && !fired; ++i) fired = shifted.update(1.1);
  EXPECT_TRUE(fired);
  // Firing resets the detector for the next regime.
  EXPECT_EQ(shifted.samples(), 0u);
  EXPECT_EQ(shifted.statistic(), 0.0);
}

TEST(StreamDrift, WindowedMonitorFiresWhenShortWindowBlowsUp) {
  WindowedErrorMonitor stationary;
  for (int i = 0; i < 400; ++i) EXPECT_FALSE(stationary.update(0.01));

  WindowedErrorMonitor monitor;
  for (int i = 0; i < 160; ++i) ASSERT_FALSE(monitor.update(0.01));
  bool fired = false;
  for (int i = 0; i < 64 && !fired; ++i) fired = monitor.update(0.1);
  EXPECT_TRUE(fired);
}

TEST(StreamDrift, MonitorAggregatesResidualDetectorsAndResets) {
  DriftOptions opts;
  opts.monitor_inputs = false;
  DriftMonitor monitor({"cpu_util_percent"}, opts);
  for (int i = 0; i < 150; ++i)
    ASSERT_FALSE(monitor.observe_residual(0.01));
  bool fired = false;
  for (int i = 0; i < 64 && !fired; ++i)
    fired = monitor.observe_residual(0.5);
  EXPECT_TRUE(fired);
  EXPECT_GE(monitor.events(), 1u);
  EXPECT_FALSE(monitor.last_reason().empty());

  monitor.reset();
  EXPECT_EQ(monitor.residual_detector().samples(), 0u);
  EXPECT_EQ(monitor.windowed_monitor().ratio(), 0.0);
}

TEST(StreamDrift, FireTickExposesCrossingStatistic) {
  // On the tick a detector fires, update() resets its state — the exported
  // gauges read last_statistic()/last_ratio(), which survive the reset and
  // hold the value that actually crossed the threshold.
  PageHinkley ph;
  for (int i = 0; i < 200; ++i) ASSERT_FALSE(ph.update(0.1));
  bool fired = false;
  for (int i = 0; i < 50 && !fired; ++i) fired = ph.update(1.1);
  ASSERT_TRUE(fired);
  EXPECT_EQ(ph.statistic(), 0.0);
  EXPECT_GT(ph.last_statistic(), PageHinkleyOptions{}.lambda);

  WindowedErrorMonitor wm;
  for (int i = 0; i < 160; ++i) ASSERT_FALSE(wm.update(0.01));
  fired = false;
  for (int i = 0; i < 64 && !fired; ++i) fired = wm.update(0.1);
  ASSERT_TRUE(fired);
  EXPECT_EQ(wm.ratio(), 0.0);
  EXPECT_GT(wm.last_ratio(), WindowedErrorOptions{}.ratio_threshold);
}

TEST(StreamDrift, InputDetectorNamesTheDriftingIndicator) {
  DriftMonitor monitor({"cpu_util_percent", "mem_util_percent"});
  for (int i = 0; i < 200; ++i)
    ASSERT_FALSE(monitor.observe_inputs({0.1, 0.1}));
  bool fired = false;
  for (int i = 0; i < 64 && !fired; ++i)
    fired = monitor.observe_inputs({0.1, 0.9});
  EXPECT_TRUE(fired);
  EXPECT_EQ(monitor.last_reason(), "input:mem_util_percent");
}

TEST(StreamDrift, LevelTriggerCatchesConstantlyBadModel) {
  // A model that is wrong from its very first prediction produces a high
  // but *stationary* residual: Page-Hinkley tracks its own mean and the
  // ratio test's reference window is just as bad as the trailing one, so
  // neither fires. The same stream never trips a ratio-only monitor...
  WindowedErrorOptions ratio_only;
  ratio_only.short_window = 16;
  WindowedErrorMonitor blind(ratio_only);
  for (int i = 0; i < 400; ++i) ASSERT_FALSE(blind.update(0.5));

  // ...while the absolute level trigger fires as soon as its short window
  // fills, well before the ratio test's long-window warmup.
  WindowedErrorOptions opts = ratio_only;
  opts.level_threshold = 0.3;
  WindowedErrorMonitor monitor(opts);
  std::size_t updates = 0;
  bool fired = false;
  while (updates < 64 && !fired) {
    fired = monitor.update(0.5);
    ++updates;
  }
  EXPECT_TRUE(fired);
  EXPECT_EQ(updates, opts.short_window);
  EXPECT_TRUE(monitor.level_fired());

  // DriftMonitor labels the fire distinctly.
  DriftOptions dopts;
  dopts.monitor_inputs = false;
  dopts.windowed.short_window = 8;
  dopts.windowed.level_threshold = 0.3;
  DriftMonitor labelled({"cpu_util_percent"}, dopts);
  fired = false;
  for (int i = 0; i < 32 && !fired; ++i)
    fired = labelled.observe_residual(0.6);
  EXPECT_TRUE(fired);
  EXPECT_EQ(labelled.last_reason(), "error-level");
}

TEST(StreamNormalizer, FreezeStopsFoldingObservations) {
  OnlineNormalizer norm({"cpu_util_percent"});
  norm.observe({1.0});
  norm.observe({3.0});
  ASSERT_EQ(norm.min_of(0), 1.0);
  ASSERT_EQ(norm.max_of(0), 3.0);

  norm.freeze();
  EXPECT_TRUE(norm.frozen());
  norm.observe({100.0});
  EXPECT_EQ(norm.max_of(0), 3.0);
  EXPECT_EQ(norm.count(), 2u);
  // Out-of-range inputs now map outside [0,1], exactly as a batch-fitted
  // scaler shipped with a frozen deployment would map them.
  EXPECT_DOUBLE_EQ(norm.normalize(0, 5.0), 2.0);
  EXPECT_DOUBLE_EQ(norm.denormalize(0, 2.0), 5.0);
}

// ---------------------------------------------------------------------------
// Hot-swap under concurrent submit load
// ---------------------------------------------------------------------------

nn::RptcnOptions swap_net_options(std::uint64_t seed) {
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.horizon = 2;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  opt.seed = seed;
  return opt;
}

TEST(StreamSwap, ConcurrentSubmittersSeeExactlyGenerationAOrB) {
  nn::RptcnNet net_a(swap_net_options(13));
  nn::RptcnNet net_b(swap_net_options(99));
  auto session_a = std::make_shared<serve::InferenceSession>(net_a);
  auto session_b = std::make_shared<serve::InferenceSession>(net_b);

  Tensor window({3, 16});
  for (std::size_t i = 0; i < window.size(); ++i)
    window.raw()[i] = 0.01f * static_cast<float>(i % 37);
  Tensor one({1, 3, 16});
  std::copy_n(window.raw(), window.size(), one.raw());
  const Tensor row_a = session_a->run(one);
  const Tensor row_b = session_b->run(one);
  // The two generations must be distinguishable for the test to mean
  // anything.
  bool differ = false;
  for (std::size_t h = 0; h < row_a.size(); ++h)
    differ = differ || row_a.raw()[h] != row_b.raw()[h];
  ASSERT_TRUE(differ);

  serve::BatchingEngine engine(session_a, {/*max_batch=*/4,
                                           /*max_delay_us=*/100,
                                           /*workers=*/2});

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 60;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::future<Tensor>>> futures(kThreads);
  for (std::size_t c = 0; c < kThreads; ++c)
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        futures[c].push_back(engine.submit(window));
    });

  // Swap mid-flight, then prove the fence: a submission after the swap
  // returned must be answered by generation B.
  const std::uint64_t gen = engine.swap_session(session_b);
  EXPECT_EQ(gen, 2u);
  std::future<Tensor> after_swap = engine.submit(window);
  for (auto& th : clients) th.join();
  engine.flush();

  const auto matches = [](const Tensor& row, const Tensor& ref) {
    if (row.size() != ref.size()) return false;
    for (std::size_t h = 0; h < ref.size(); ++h)
      if (row.raw()[h] != ref.at(0, h)) return false;
    return true;
  };

  // Every request was answered bit-exactly by generation A or generation B
  // — never a torn mixture.
  std::size_t from_a = 0;
  std::size_t from_b = 0;
  for (auto& per_thread : futures)
    for (auto& fut : per_thread) {
      const Tensor row = fut.get();
      const bool is_a = matches(row, row_a);
      const bool is_b = matches(row, row_b);
      ASSERT_TRUE(is_a || is_b) << "row matches neither generation";
      if (is_a) ++from_a;
      if (is_b) ++from_b;
    }
  EXPECT_EQ(from_a + from_b, kThreads * kPerThread);
  EXPECT_TRUE(matches(after_swap.get(), row_b));

  const serve::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.submitted, kThreads * kPerThread + 1);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

// ---------------------------------------------------------------------------
// RollingRetrainer
// ---------------------------------------------------------------------------

TEST(StreamRetrain, BackgroundRetrainSwapsBitConsistently) {
  const data::TimeSeriesFrame full = single_regime_trace(260, 29);
  StreamSource source(std::make_unique<ReplayProvider>(full),
                      SourceOptions{kFeatures, 512, {}});
  while (source.poll()) {
  }

  RetrainOptions ropt = tiny_retrain(200);
  ropt.checkpoint_dir = ::testing::TempDir();

  // Bootstrap generation 1 synchronously through the same recipe the
  // retrainer uses.
  FittedGeneration g0 = fit_generation(source.history(200),
                                       source.normalizer(), ropt, 1,
                                       "bootstrap");
  ASSERT_NE(g0.session, nullptr) << g0.outcome.error;
  serve::BatchingEngine engine(g0.session, {});

  RollingRetrainer retrainer(engine, ropt);
  ASSERT_TRUE(retrainer.request(source.history(200), source.normalizer(),
                                "test", 200));
  retrainer.wait_idle();

  const RetrainOutcome outcome = retrainer.last();
  EXPECT_TRUE(outcome.error.empty()) << outcome.error;
  EXPECT_TRUE(outcome.swapped);
  EXPECT_EQ(outcome.generation, 2u);
  EXPECT_EQ(outcome.checkpoint, models::CheckpointStatus::kOk);
  ASSERT_FALSE(outcome.checkpoint_path.empty());
  EXPECT_EQ(retrainer.completed(), 1u);
  EXPECT_EQ(retrainer.failures(), 0u);
  EXPECT_EQ(engine.generation(), 2u);

  // Bit consistency: the live post-swap session must predict exactly what a
  // fresh forecaster restored from the generation's checkpoint predicts.
  auto restored = models::make_forecaster(ropt.model_name, ropt.model);
  const models::ForecastDataset donor =
      build_dataset(source.history(200), source.normalizer(), ropt);
  ASSERT_EQ(restored->restore(donor, outcome.checkpoint_path),
            models::CheckpointStatus::kOk);
  serve::InferenceSession restored_session(*restored);

  const Tensor lw = source.latest_window(ropt.window.window);
  Tensor one({1, lw.dim(0), lw.dim(1)});
  std::copy_n(lw.raw(), lw.size(), one.raw());
  const Tensor live = engine.session()->run(one);
  const Tensor ref = restored_session.run(one);
  ASSERT_EQ(live.size(), ref.size());
  for (std::size_t h = 0; h < ref.size(); ++h)
    ASSERT_EQ(live.raw()[h], ref.raw()[h])
        << "hot-swapped weights diverged from their checkpoint";
}

TEST(StreamRetrain, QualityGateRetriesAndRefusesBadFits) {
  const data::TimeSeriesFrame full = single_regime_trace(260, 37);
  StreamSource source(std::make_unique<ReplayProvider>(full),
                      SourceOptions{kFeatures, 512, {}});
  while (source.poll()) {
  }

  // An impossible gate: every attempt fails it, the best attempt is still
  // returned (bootstrap needs *a* model) but flagged rejected.
  RetrainOptions gated = tiny_retrain(200);
  gated.max_valid_loss = 1e-12;
  gated.fit_attempts = 2;
  const FittedGeneration g = fit_generation_gated(
      source.history(200), source.normalizer(), gated, 1, "test");
  ASSERT_NE(g.session, nullptr) << g.outcome.error;
  EXPECT_TRUE(g.outcome.quality_rejected);
  EXPECT_EQ(g.outcome.attempts, 2u);

  // A gate-rejected generation writes no gen_<N>.ckpt — only installed
  // generations leave restorable state behind.
  RetrainOptions reject_ck = tiny_retrain(200);
  reject_ck.max_valid_loss = 1e-12;
  reject_ck.fit_attempts = 2;
  reject_ck.checkpoint_dir = ::testing::TempDir() + "never_created";
  const FittedGeneration rj = fit_generation_gated(
      source.history(200), source.normalizer(), reject_ck, 7, "test");
  ASSERT_NE(rj.session, nullptr);
  EXPECT_TRUE(rj.outcome.quality_rejected);
  EXPECT_TRUE(rj.outcome.checkpoint_path.empty());
  EXPECT_FALSE(
      std::ifstream(reject_ck.checkpoint_dir + "/gen_7.ckpt").good());

  // A permissive gate fits exactly once and passes.
  gated.max_valid_loss = 1e9;
  const FittedGeneration ok = fit_generation_gated(
      source.history(200), source.normalizer(), gated, 1, "test");
  ASSERT_NE(ok.session, nullptr);
  EXPECT_FALSE(ok.outcome.quality_rejected);
  EXPECT_EQ(ok.outcome.attempts, 1u);

  // Under the gate the checkpoint is written once, after the retry loop,
  // so gen_<N>.ckpt always holds the winning attempt's weights: the saved
  // file restores to exactly what the returned session serves.
  RetrainOptions pass_ck = tiny_retrain(200);
  pass_ck.max_valid_loss = 1e9;
  pass_ck.checkpoint_dir = ::testing::TempDir();
  const FittedGeneration win = fit_generation_gated(
      source.history(200), source.normalizer(), pass_ck, 9, "test");
  ASSERT_NE(win.session, nullptr);
  EXPECT_EQ(win.outcome.checkpoint, models::CheckpointStatus::kOk);
  ASSERT_FALSE(win.outcome.checkpoint_path.empty());
  auto restored = models::make_forecaster(pass_ck.model_name, pass_ck.model);
  const models::ForecastDataset donor =
      build_dataset(source.history(200), source.normalizer(), pass_ck);
  ASSERT_EQ(restored->restore(donor, win.outcome.checkpoint_path),
            models::CheckpointStatus::kOk);
  serve::InferenceSession restored_session(*restored);
  const Tensor lw = source.latest_window(pass_ck.window.window);
  Tensor one({1, lw.dim(0), lw.dim(1)});
  std::copy_n(lw.raw(), lw.size(), one.raw());
  const Tensor live = win.session->run(one);
  const Tensor ref = restored_session.run(one);
  ASSERT_EQ(live.size(), ref.size());
  for (std::size_t h = 0; h < ref.size(); ++h)
    ASSERT_EQ(live.raw()[h], ref.raw()[h])
        << "gated checkpoint diverged from the winning attempt";

  // Through the retrainer, a rejected fit must leave the engine generation
  // untouched (the incumbent keeps serving).
  RetrainOptions refuse = tiny_retrain(200);
  refuse.max_valid_loss = 1e-12;
  refuse.fit_attempts = 2;
  FittedGeneration g0 = fit_generation(source.history(200),
                                       source.normalizer(), refuse, 1,
                                       "bootstrap");
  ASSERT_NE(g0.session, nullptr);
  serve::BatchingEngine engine(g0.session, {});
  RollingRetrainer retrainer(engine, refuse);
  ASSERT_TRUE(retrainer.request(source.history(200), source.normalizer(),
                                "test", 200));
  retrainer.wait_idle();
  EXPECT_EQ(retrainer.completed(), 1u);
  EXPECT_EQ(retrainer.failures(), 0u);
  EXPECT_FALSE(retrainer.last().swapped);
  EXPECT_TRUE(retrainer.last().quality_rejected);
  EXPECT_EQ(engine.generation(), 1u);
}

TEST(StreamRetrain, NonFiniteValidationLossFailsTheGateEvenWhenOff) {
  const data::TimeSeriesFrame full = single_regime_trace(260, 38);
  StreamSource source(std::make_unique<ReplayProvider>(full),
                      SourceOptions{kFeatures, 512, {}});
  while (source.poll()) {
  }

  // A forced divergence: Adam steps of ~1e35 blow every weight up, so the
  // validation loss is no longer a number. With the max_valid_loss gate
  // off (the default) the fit must still be rejected, after a retry.
  RetrainOptions diverge = tiny_retrain(200);
  diverge.model.nn.learning_rate = 1e35f;
  diverge.fit_attempts = 2;
  diverge.checkpoint_dir = ::testing::TempDir() + "diverged_never_created";
  ASSERT_EQ(diverge.max_valid_loss, 0.0);
  const FittedGeneration bad = fit_generation_gated(
      source.history(200), source.normalizer(), diverge, 3, "test");
  ASSERT_NE(bad.session, nullptr) << bad.outcome.error;
  EXPECT_FALSE(std::isfinite(bad.outcome.valid_loss));
  EXPECT_TRUE(bad.outcome.quality_rejected);
  EXPECT_EQ(bad.outcome.attempts, 2u);
  EXPECT_TRUE(bad.outcome.checkpoint_path.empty());

  // The retrainer refuses to swap it in: the incumbent keeps serving.
  FittedGeneration g0 = fit_generation(source.history(200),
                                       source.normalizer(), tiny_retrain(200),
                                       1, "bootstrap");
  ASSERT_NE(g0.session, nullptr);
  ASSERT_TRUE(std::isfinite(g0.outcome.valid_loss));
  serve::BatchingEngine engine(g0.session, {});
  diverge.checkpoint_dir.clear();
  RollingRetrainer retrainer(engine, diverge);
  ASSERT_TRUE(retrainer.request(source.history(200), source.normalizer(),
                                "test", 200));
  retrainer.wait_idle();
  EXPECT_FALSE(retrainer.last().swapped);
  EXPECT_TRUE(retrainer.last().quality_rejected);
  EXPECT_EQ(engine.generation(), 1u);

  // A finite fit with the gate off is one attempt and passes, as before.
  const FittedGeneration ok = fit_generation_gated(
      source.history(200), source.normalizer(), tiny_retrain(200), 4, "test");
  ASSERT_NE(ok.session, nullptr);
  EXPECT_FALSE(ok.outcome.quality_rejected);
  EXPECT_EQ(ok.outcome.attempts, 1u);
}

TEST(StreamChannel, InfiniteTicksAreDroppedLikeNaN) {
  IngestChannel channel({"cpu", "mem"});
  EXPECT_TRUE(channel.ingest({0.25, 0.5}));
  EXPECT_FALSE(channel.ingest({std::numeric_limits<double>::infinity(), 0.5}));
  EXPECT_FALSE(channel.ingest({0.25, -std::numeric_limits<double>::infinity()}));
  EXPECT_FALSE(channel.ingest({std::numeric_limits<double>::quiet_NaN(), 0.5}));
  EXPECT_TRUE(channel.ingest({0.75, 0.1}));
  EXPECT_EQ(channel.ticks(), 2u);
  EXPECT_EQ(channel.dropped(), 3u);
  // Neither the normalizer nor the rings ever saw an infinity.
  EXPECT_EQ(channel.normalizer().min_of(0), 0.25);
  EXPECT_EQ(channel.normalizer().max_of(0), 0.75);
  EXPECT_EQ(channel.normalizer().min_of(1), 0.1);
  EXPECT_EQ(channel.normalizer().max_of(1), 0.5);
  EXPECT_EQ(channel.latest_raw(0), 0.75);
}

TEST(StreamRetrain, CooldownRejectsRapidRetriggers) {
  const data::TimeSeriesFrame full = single_regime_trace(260, 31);
  StreamSource source(std::make_unique<ReplayProvider>(full),
                      SourceOptions{kFeatures, 512, {}});
  while (source.poll()) {
  }

  RetrainOptions ropt = tiny_retrain(200);
  ropt.min_ticks_between = 64;
  FittedGeneration g0 = fit_generation(source.history(200),
                                       source.normalizer(), ropt, 1,
                                       "bootstrap");
  ASSERT_NE(g0.session, nullptr) << g0.outcome.error;
  serve::BatchingEngine engine(g0.session, {});
  RollingRetrainer retrainer(engine, ropt);

  ASSERT_TRUE(retrainer.request(source.history(200), source.normalizer(),
                                "first", 200));
  retrainer.wait_idle();
  // Inside the cooldown window the trigger is rejected even when idle...
  EXPECT_FALSE(retrainer.request(source.history(200), source.normalizer(),
                                 "too-soon", 230));
  // ...and accepted again once it elapses.
  EXPECT_TRUE(retrainer.request(source.history(200), source.normalizer(),
                                "later", 264));
  retrainer.wait_idle();
  EXPECT_EQ(retrainer.completed(), 2u);
}

// ---------------------------------------------------------------------------
// OnlinePipeline end-to-end
// ---------------------------------------------------------------------------

OnlinePipelineOptions pipeline_options() {
  OnlinePipelineOptions opt;
  opt.source.features = kFeatures;
  opt.source.capacity = 1024;
  opt.retrain = tiny_retrain(256);
  opt.retrain.min_ticks_between = 32;
  opt.warmup = 288;
  return opt;
}

TEST(StreamPipeline, DetectsDriftRetrainsInBackgroundAndHotSwaps) {
  const data::TimeSeriesFrame trace =
      make_mutating_trace(regime_a(), regime_b(), 420, 320, 7).frame;
  OnlinePipeline loop(std::make_unique<ReplayProvider>(trace),
                      pipeline_options());

  std::vector<double> ingest_times;
  std::size_t residuals = 0;
  std::size_t drift_ticks = 0;
  std::size_t ticks_while_retraining = 0;
  while (auto tick = loop.step()) {
    ingest_times.push_back(tick->ingest_seconds);
    if (tick->residual_ready) ++residuals;
    if (tick->drift) ++drift_ticks;
    if (loop.retrainer() && loop.retrainer()->busy()) ++ticks_while_retraining;
  }
  if (loop.retrainer()) loop.retrainer()->wait_idle();

  EXPECT_TRUE(loop.bootstrapped());
  EXPECT_GT(residuals, 300u);
  EXPECT_GE(drift_ticks, 1u) << "regime mutation went undetected";
  ASSERT_NE(loop.retrainer(), nullptr);
  EXPECT_GE(loop.retrainer()->completed(), 1u);
  EXPECT_GE(loop.engine()->generation(), 2u) << "no hot-swap happened";

  // Ingestion must keep moving while a retrain is in flight: the fit takes
  // many tick-times, so if ingest blocked on training this count would be 0.
  EXPECT_GT(ticks_while_retraining, 0u)
      << "ingest stalled while the retrainer was busy";

  // Ingest latency p99 stays bounded (poll is O(features) and lock-free).
  std::sort(ingest_times.begin(), ingest_times.end());
  const double p99 = ingest_times[ingest_times.size() * 99 / 100];
  EXPECT_LT(p99, 0.25) << "ingest p99 " << p99 << "s";
}

TEST(StreamPipeline, ForecastDueOnDroppedTickIsDiscarded) {
  data::TimeSeriesFrame trace =
      make_mutating_trace(regime_a(), regime_a(), 420, 0, 19).frame;
  // One incomplete tick well after bootstrap: the forecast aimed at it has
  // no ground truth and must expire unscored, not be compared against the
  // next complete tick.
  trace.column_mut(trace.index_of("cpu_util_percent"))[350] =
      std::numeric_limits<double>::quiet_NaN();

  OnlinePipelineOptions opt = pipeline_options();
  opt.retrain_on_drift = false;  // single generation, no swap interplay
  OnlinePipeline loop(std::make_unique<ReplayProvider>(trace), opt);

  std::size_t dropped = 0;
  std::size_t residuals = 0;
  std::size_t missing = 0;
  bool expect_residual = false;
  while (auto tick = loop.step()) {
    if (tick->dropped) {
      ++dropped;
      continue;
    }
    if (expect_residual) {
      if (tick->residual_ready)
        ++residuals;
      else
        ++missing;
    }
    if (tick->predicted) expect_residual = true;
  }

  EXPECT_EQ(dropped, 1u);
  // Exactly one residual is missing: the one whose target tick was dropped.
  EXPECT_EQ(missing, 1u);
  EXPECT_GT(residuals, 50u);
}

TEST(StreamPipeline, DelegatedModelSurvivesTeardownWithPendingForecast) {
  const data::TimeSeriesFrame trace = single_regime_trace(480, 43);
  OnlinePipelineOptions opt = pipeline_options();
  opt.retrain.model_name = "ARIMA";
  // Detectors off; the cadence alone drives background ARIMA retrains.
  opt.drift.monitor_inputs = false;
  opt.drift.residual_ph.lambda = 1e9;
  opt.drift.windowed.ratio_threshold = 1e9;
  opt.retrain_on_drift = false;
  opt.retrain_cadence = 64;
  {
    OnlinePipeline loop(std::make_unique<ReplayProvider>(trace), opt);
    // Run until a delegated-model generation has been swapped in, then
    // destroy the pipeline with the newest forecast still pending: teardown
    // drains it through sessions that co-own their forecasters, so no
    // member-ordering accident can run a request against a freed delegate
    // (ASan would flag the use-after-free this guards against).
    while (auto tick = loop.step()) {
      if (loop.retrainer() && loop.retrainer()->completed() >= 1 &&
          tick->predicted)
        break;
    }
    EXPECT_TRUE(loop.bootstrapped());
  }
}

TEST(StreamPipeline, StaticBaselineNeverSwaps) {
  const data::TimeSeriesFrame trace =
      make_mutating_trace(regime_a(), regime_b(), 360, 120, 7).frame;
  OnlinePipelineOptions opt = pipeline_options();
  opt.retrain_on_drift = false;
  OnlinePipeline loop(std::make_unique<ReplayProvider>(trace), opt);
  loop.run();

  EXPECT_TRUE(loop.bootstrapped());
  EXPECT_EQ(loop.retrainer(), nullptr);
  EXPECT_EQ(loop.engine()->generation(), 1u);
  EXPECT_EQ(loop.engine()->stats().swaps, 0u);
}

TEST(StreamPipeline, CadenceRetrainsWithoutAnyDrift) {
  const data::TimeSeriesFrame trace = single_regime_trace(640, 23);
  OnlinePipelineOptions opt = pipeline_options();
  // Detectors effectively off: only the cadence may trigger.
  opt.drift.monitor_inputs = false;
  opt.drift.residual_ph.lambda = 1e9;
  opt.drift.windowed.ratio_threshold = 1e9;
  opt.retrain_on_drift = false;
  opt.retrain_cadence = 96;
  OnlinePipeline loop(std::make_unique<ReplayProvider>(trace), opt);
  loop.run();
  if (loop.retrainer()) loop.retrainer()->wait_idle();

  ASSERT_NE(loop.retrainer(), nullptr);
  EXPECT_GE(loop.retrainer()->completed(), 1u);
  EXPECT_GE(loop.engine()->generation(), 2u);
}

// ---------------------------------------------------------------------------
// Mutation schedules
// ---------------------------------------------------------------------------

TEST(StreamMutation, ScheduleRecordsFlipTickAndMagnitude) {
  const MutatingTrace t = make_mutating_trace(regime_a(), regime_b(), 100,
                                              50, /*seed=*/7);
  EXPECT_EQ(t.frame.length(), 150u);
  ASSERT_EQ(t.mutations.size(), 1u);
  EXPECT_EQ(t.mutations[0].tick, 100u);
  EXPECT_DOUBLE_EQ(t.mutations[0].base_level_delta,
                   regime_b().base_level - regime_a().base_level);

  // A trace that never flips has an empty schedule.
  const MutatingTrace flat = make_mutating_trace(regime_a(), regime_b(), 120,
                                                 0, /*seed=*/7);
  EXPECT_EQ(flat.frame.length(), 120u);
  EXPECT_TRUE(flat.mutations.empty());
}

TEST(StreamMutation, RegimeStormSchedulesEveryBoundaryWithDistinctSeeds) {
  const MutatingTrace storm = make_regime_trace(
      {{regime_a(), 100}, {regime_b(), 50}, {regime_a(), 60}}, /*seed=*/21);
  EXPECT_EQ(storm.frame.length(), 210u);
  ASSERT_EQ(storm.mutations.size(), 2u);
  EXPECT_EQ(storm.mutations[0].tick, 100u);
  EXPECT_EQ(storm.mutations[1].tick, 150u);
  EXPECT_DOUBLE_EQ(storm.mutations[0].base_level_delta,
                   regime_b().base_level - regime_a().base_level);
  EXPECT_DOUBLE_EQ(storm.mutations[1].base_level_delta,
                   regime_a().base_level - regime_b().base_level);

  // Segments 0 and 2 share params but must run under distinct seeds — an
  // A-B-A storm whose A legs replayed identical samples would hand drift
  // detectors a rerun, not a storm.
  const auto& cpu = storm.frame.column("cpu_util_percent");
  bool differs = false;
  for (std::size_t t = 0; t < 60 && !differs; ++t)
    differs = cpu[t] != cpu[150 + t];
  EXPECT_TRUE(differs);

  // Zero-step segments are skipped without scheduling a flip, and the seed
  // derivation is positional: the two-regime helper's bit pattern is what a
  // three-segment schedule with an empty middle leg produces.
  const MutatingTrace with_gap = make_regime_trace(
      {{regime_a(), 100}, {regime_b(), 0}, {regime_a(), 60}}, /*seed=*/21);
  EXPECT_EQ(with_gap.frame.length(), 160u);
  ASSERT_EQ(with_gap.mutations.size(), 1u);
  EXPECT_EQ(with_gap.mutations[0].tick, 100u);
  EXPECT_DOUBLE_EQ(with_gap.mutations[0].base_level_delta, 0.0);
}

TEST(StreamMutation, TwoSegmentScheduleKeepsHistoricalBitPattern) {
  // The struct-returning generator must emit the exact frame the original
  // two-regime helper did: prefix = a fresh regime-a model under `seed`,
  // suffix = a fresh regime-b model under `seed ^ golden-ratio`.
  const MutatingTrace t =
      make_mutating_trace(regime_a(), regime_b(), 40, 30, /*seed=*/91);
  trace::WorkloadModel before(regime_a(), 91);
  trace::WorkloadModel after(regime_b(), 91 ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < 70; ++i) {
    const trace::IndicatorSample s =
        i < 40 ? before.step(0.3) : after.step(0.3);
    for (std::size_t f = 0; f < trace::kIndicatorCount; ++f)
      EXPECT_EQ(t.frame.column(f)[i], s.values[f])
          << "tick " << i << " indicator " << f;
  }
}

}  // namespace
}  // namespace rptcn::stream
