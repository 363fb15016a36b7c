// Tests for the JIT-lite executor (src/graph): arena planning invariants
// (liveness sharing, no overlap while live), forward
// compile parity against the tape for every registry net (the bit-identity
// contract from plan.h), the compile-decline rule and its counters,
// PlanCache behaviour (capture-once, hit/miss counters, eviction),
// InferenceSession integration including the RPTCN_DISABLE_PLAN-style
// fallback and shape-error messages, and the trainer's planned_eval path.
// The "Graph" prefix is matched by the TSAN CI job's -R filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/check.h"
#include "common/rng.h"
#include "data/timeseries.h"
#include "data/windowing.h"
#include "graph/plan.h"
#include "graph/train.h"
#include "models/nn_forecasters.h"
#include "nn/cnn_lstm.h"
#include "nn/lstm.h"
#include "nn/rptcn_net.h"
#include "obs/metrics.h"
#include "serve/session.h"
#include "tensor/tensor.h"

namespace rptcn::serve {

/// Reaches InferenceSession's private arbitrary-forward constructor, which
/// exists so a test can serve a forward the compiler declines.
struct SessionTestAccess {
  static std::unique_ptr<InferenceSession> make(
      std::string name, std::unique_ptr<nn::Module> net,
      InferenceSession::ForwardFn forward, std::size_t horizon,
      std::size_t input_features) {
    return std::unique_ptr<InferenceSession>(
        new InferenceSession(std::move(name), std::move(net),
                             std::move(forward), horizon, input_features));
  }
};

}  // namespace rptcn::serve

namespace rptcn::graph {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t.raw()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)), 0)
      << "planned output is not bit-identical to the tape forward";
}

/// The tape forward one row at a time: [N, F, T] -> [N, horizon].
Tensor rowwise_forward(const opt::ForwardFn& forward, const Tensor& x) {
  NoGradScope no_grad;
  const std::size_t n = x.dim(0), row = x.dim(1) * x.dim(2);
  Tensor out;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor xi({1, x.dim(1), x.dim(2)});
    std::copy_n(x.raw() + i * row, row, xi.raw());
    const Tensor y = forward(Variable(xi)).value();
    if (i == 0) out = Tensor({n, y.size()});
    std::copy_n(y.raw(), y.size(), out.raw() + i * y.size());
  }
  return out;
}

/// The tape forward on the true batch.
Tensor batch_forward(const opt::ForwardFn& forward, const Tensor& x) {
  NoGradScope no_grad;
  return forward(Variable(x)).value();
}

/// Restores the global planning switch (tests toggle it).
class PlanningGuard {
 public:
  PlanningGuard() : was_(planning_enabled()) {}
  ~PlanningGuard() { set_planning_enabled(was_); }

 private:
  bool was_;
};

/// Enables metric recording for the test body, restoring the old state.
class ObsGuard {
 public:
  ObsGuard() : was_(obs::enabled()) { obs::set_enabled(true); }
  ~ObsGuard() { obs::set_enabled(was_); }

 private:
  bool was_;
};

/// Emits `dst[i] = src[i] + delta` over `len` floats.
void emit_add_const(GraphBuilder& g, ValueId src, ValueId dst, std::size_t len,
                    float delta) {
  EmitSpec spec;
  spec.name = "add_const";
  spec.inputs = {src};
  spec.outputs = {dst};
  g.emit(spec, [src, dst, len, delta](const Resolver& r) -> Operation {
    auto in = r.cptr(src);
    auto out = r.ptr(dst);
    return [in, out, len, delta](const ExecContext& ctx) {
      const float* s = in(ctx);
      float* d = out(ctx);
      for (std::size_t i = 0; i < len; ++i) d[i] = s[i] + delta;
    };
  });
}

/// Minimal executable: output = input (shape [n, f, t]). Used as a cheap
/// CaptureFn for the PlanCache tests.
std::shared_ptr<const Executable> copy_executable(std::size_t n, std::size_t f,
                                                  std::size_t t) {
  const std::size_t len = n * f * t;
  GraphBuilder g({n, f, t}, {n, f, t});
  const ValueId in = g.input_value();
  const ValueId out = g.output_value();
  emit_add_const(g, in, out, len, 0.0f);
  return g.finish();
}

// -- planner invariants -------------------------------------------------------

TEST(GraphPlanner, DeadBlocksAreReusedAcrossLifetimes) {
  // in -> a -> b -> c -> out, 64 floats each. `a` dies once `b` is
  // computed, so `c` (defined one step later) must land on `a`'s block, and
  // the arena needs two blocks, not three.
  const std::size_t len = 64;
  GraphBuilder g({8, 8}, {8, 8});
  const ValueId in = g.input_value();
  const ValueId out = g.output_value();
  const ValueId a = g.value(len);
  const ValueId b = g.value(len);
  const ValueId c = g.value(len);
  emit_add_const(g, in, a, len, 1.0f);
  emit_add_const(g, a, b, len, 1.0f);
  emit_add_const(g, b, c, len, 1.0f);
  emit_add_const(g, c, out, len, 1.0f);
  const auto exec = g.finish();

  const auto& vals = exec->values();
  EXPECT_EQ(vals[a].loc, Loc::kArena);
  EXPECT_EQ(vals[c].off, vals[a].off) << "dead block was not reused";
  EXPECT_NE(vals[b].off, vals[a].off) << "simultaneously live blocks overlap";
  EXPECT_EQ(exec->arena_floats(), 2 * len);
  EXPECT_EQ(exec->step_count(), 4u);

  // Reuse must not corrupt the dataflow: four chained increments, rounded
  // exactly as the ops apply them.
  const Tensor x = random_tensor({8, 8}, 11);
  const Tensor y = exec->run(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    float expected = x.raw()[i];
    for (int step = 0; step < 4; ++step) expected += 1.0f;
    ASSERT_EQ(y.raw()[i], expected);
  }
}

TEST(GraphPlanner, LiveArenaBlocksNeverOverlapInRealCapture) {
  // The planner invariant on a real compiled forward: any two arena values
  // whose [def, last] lifetimes intersect must occupy disjoint byte ranges.
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  nn::RptcnNet net(opt);
  net.set_training(false);
  const auto exec = compile_forward(
      [&net](const Variable& x) { return net.forward(x); }, 4, 3, 12,
      /*dispatch_n=*/1);
  ASSERT_NE(exec, nullptr);
  const auto& vals = exec->values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (vals[i].loc != Loc::kArena) continue;
    for (std::size_t j = i + 1; j < vals.size(); ++j) {
      if (vals[j].loc != Loc::kArena) continue;
      const bool lifetimes_intersect =
          vals[i].def <= vals[j].last && vals[j].def <= vals[i].last;
      if (!lifetimes_intersect) continue;
      const bool disjoint = vals[i].off + vals[i].floats <= vals[j].off ||
                            vals[j].off + vals[j].floats <= vals[i].off;
      EXPECT_TRUE(disjoint) << "values " << i << " and " << j
                            << " are live together but share arena bytes";
    }
    EXPECT_LE(vals[i].off + vals[i].floats, exec->arena_floats());
  }
}

// -- forward compile parity (the bit-identity contract) -----------------------

/// dispatch_n = 1 (serving) must reproduce every row's own N=1 net.forward;
/// dispatch_n = 0 (trainer eval) must reproduce net.forward on the true
/// batch. Replays are repeated and re-fed so no arena state leaks between
/// runs.
template <typename Net>
void expect_forward_compile_parity(Net& net, std::size_t f, std::size_t t) {
  net.set_training(false);
  const opt::ForwardFn fwd = [&net](const Variable& x) {
    return net.forward(x);
  };
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}}) {
    const Tensor x = random_tensor({n, f, t}, 100 + n);
    const Tensor x2 = random_tensor({n, f, t}, 200 + n);
    const auto serving = compile_forward(fwd, n, f, t, /*dispatch_n=*/1);
    ASSERT_NE(serving, nullptr);
    expect_same_bits(rowwise_forward(fwd, x), serving->run(x));
    expect_same_bits(rowwise_forward(fwd, x), serving->run(x));
    expect_same_bits(rowwise_forward(fwd, x2), serving->run(x2));
    const auto eval = compile_forward(fwd, n, f, t, /*dispatch_n=*/0);
    ASSERT_NE(eval, nullptr);
    expect_same_bits(batch_forward(fwd, x), eval->run(x));
    expect_same_bits(batch_forward(fwd, x2), eval->run(x2));
  }
}

TEST(GraphForwardCompile, RptcnParityMatchesTape) {
  nn::RptcnOptions opt;
  opt.input_features = 3;
  // dilations 1, 2, 4; the 16-channel convs take the GEMM lowering even at
  // N=1, the 6-channel ones only on the true batch of 5.
  opt.tcn.channels = {6, 16, 16};
  opt.fc_dim = 6;
  opt.seed = 21;
  nn::RptcnNet net(opt);
  expect_forward_compile_parity(net, 3, 24);
}

TEST(GraphForwardCompile, TcnVariantParityWithoutAttentionOrFc) {
  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.tcn.channels = {5, 7};  // channel change exercises the 1x1 shortcut
  opt.use_attention = false;
  opt.use_fc = false;
  opt.seed = 22;
  nn::RptcnNet net(opt);
  expect_forward_compile_parity(net, 2, 10);
}

TEST(GraphForwardCompile, LstmParityMatchesTape) {
  nn::LstmNetOptions opt;
  opt.input_features = 3;
  opt.hidden = 8;
  opt.horizon = 2;
  opt.seed = 23;
  nn::LstmNet net(opt);
  expect_forward_compile_parity(net, 3, 12);
}

TEST(GraphForwardCompile, BiLstmParityMatchesTape) {
  nn::BiLstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 6;
  opt.seed = 24;
  nn::BiLstmNet net(opt);
  expect_forward_compile_parity(net, 2, 9);
}

TEST(GraphForwardCompile, CnnLstmParityMatchesTape) {
  nn::CnnLstmOptions opt;
  opt.input_features = 3;
  opt.conv_channels = 4;
  opt.hidden = 8;
  opt.seed = 25;
  nn::CnnLstm net(opt);
  expect_forward_compile_parity(net, 3, 12);
}

TEST(GraphForwardCompile, FoldsWeightNormAndPrepacksAtCompile) {
  // Forward-only programs carry no weight_norm step (folded at compile into
  // the effective conv weight) and no per-replay pack step.
  nn::RptcnOptions ropt;
  ropt.input_features = 3;
  ropt.tcn.channels = {6, 6};
  ropt.fc_dim = 6;
  nn::RptcnNet rptcn(ropt);
  rptcn.set_training(false);
  nn::LstmNetOptions lopt;
  lopt.input_features = 3;
  lopt.hidden = 32;
  nn::LstmNet lstm(lopt);
  lstm.set_training(false);
  const auto rexec = compile_forward(
      [&rptcn](const Variable& x) { return rptcn.forward(x); }, 1, 3, 12,
      /*dispatch_n=*/1);
  const auto lexec = compile_forward(
      [&lstm](const Variable& x) { return lstm.forward(x); }, 32, 3, 12,
      /*dispatch_n=*/1);
  ASSERT_NE(rexec, nullptr);
  ASSERT_NE(lexec, nullptr);
  for (const auto& exec : {rexec, lexec})
    for (const TensorOp& op : exec->steps()) {
      EXPECT_NE(op.name, "weight_norm");
      EXPECT_NE(op.name, "pack_w");
    }
}

TEST(GraphForwardCompile, UnrecordedOpDeclinesAndSessionServesTheTape) {
  // mul_scalar has no trace record. Under NoGrad its result is a parentless
  // node like any leaf, but baking it would freeze the probe input's value
  // into the program; the compiler must decline instead, and the session
  // must serve the tape forward, row by row. The unscaled branch keeps the
  // output tied to the input, so a baked probe value would not simply fold
  // the whole forward away.
  ObsGuard obs_on;
  PlanningGuard guard;
  set_planning_enabled(true);
  auto& declined = obs::metrics().counter("graph/forward_compile_declined");
  const auto d0 = declined.value();
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  opt.seed = 28;
  auto net = std::make_unique<nn::RptcnNet>(opt);
  nn::RptcnNet* raw = net.get();
  raw->set_training(false);
  const opt::ForwardFn fwd = [raw](const Variable& x) {
    return ag::add(raw->forward(x), raw->forward(ag::mul_scalar(x, 0.5f)));
  };
  EXPECT_EQ(compile_forward(fwd, 2, 3, 12, /*dispatch_n=*/1), nullptr);
  EXPECT_EQ(declined.value() - d0, 1u);

  const auto owned = serve::SessionTestAccess::make(
      "scaled-rptcn", std::move(net), fwd, opt.horizon, opt.input_features);
  const serve::InferenceSession& session = *owned;
  const Tensor x = random_tensor({3, 3, 12}, 71);
  const Tensor served = session.run(x);
  expect_same_bits(rowwise_forward(fwd, x), served);
  EXPECT_EQ(session.stats().forward_compile_declined, 1u);
  EXPECT_EQ(declined.value() - d0, 2u);
  // The decline is cached per shape, not retried on every run.
  expect_same_bits(served, session.run(x));
  EXPECT_EQ(session.stats().forward_compile_declined, 1u);
  EXPECT_EQ(declined.value() - d0, 2u);
}

// -- plan cache ---------------------------------------------------------------

TEST(GraphPlanCache, CapturesOncePerShapeAndCountsHitsMisses) {
  ObsGuard obs_on;
  auto& hits = obs::metrics().counter("graph/plan_cache_hits");
  auto& misses = obs::metrics().counter("graph/plan_cache_misses");
  const auto h0 = hits.value();
  const auto m0 = misses.value();

  int captures = 0;
  PlanCache cache([&](std::size_t n, std::size_t f, std::size_t t) {
    ++captures;
    return copy_executable(n, f, t);
  });
  const auto a = cache.get(1, 2, 8);
  const auto b = cache.get(1, 2, 8);
  const auto c = cache.get(2, 2, 8);
  EXPECT_EQ(captures, 2);
  EXPECT_EQ(a, b) << "second get of one shape must return the cached plan";
  EXPECT_NE(a, c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(hits.value() - h0, 1u);
  EXPECT_EQ(misses.value() - m0, 2u);
}

TEST(GraphPlanCache, EvictsOldestShapeBeyondMaxPlans) {
  PlanCache cache(copy_executable);
  for (std::size_t t = 1; t <= PlanCache::kMaxPlans + 1; ++t) cache.get(1, 1, t);
  EXPECT_EQ(cache.size(), PlanCache::kMaxPlans);
  const auto shapes = cache.shapes();
  const std::array<std::size_t, 3> oldest{1, 1, 1};
  EXPECT_EQ(std::count(shapes.begin(), shapes.end(), oldest), 0)
      << "oldest-inserted shape should have been evicted";
  // The evicted shape is re-capturable (a fresh miss, not an error).
  EXPECT_NE(cache.get(1, 1, 1), nullptr);
}

TEST(GraphMetrics, ReplaysAndArenaBytesAreRecorded) {
  ObsGuard obs_on;
  auto& replays = obs::metrics().counter("graph/replays");
  const auto r0 = replays.value();
  const auto exec = copy_executable(2, 3, 4);
  const Tensor x = random_tensor({2, 3, 4}, 41);
  (void)exec->run(x);
  (void)exec->run(x);
  EXPECT_EQ(replays.value() - r0, 2u);
}

// -- serving integration ------------------------------------------------------

TEST(GraphSession, PlannedRunMatchesTapeFallback) {
  PlanningGuard guard;
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  opt.seed = 27;
  nn::RptcnNet net(opt);
  serve::InferenceSession session(net);
  const Tensor x = random_tensor({2, 3, 12}, 51);

  set_planning_enabled(true);
  const Tensor planned = session.run(x);
  set_planning_enabled(false);
  const Tensor tape = session.run(x);
  expect_same_bits(tape, planned);
}

TEST(GraphSession, DisabledPlanningIsNotADecline) {
  ObsGuard obs_on;
  PlanningGuard guard;
  auto& declined = obs::metrics().counter("graph/forward_compile_declined");
  const auto d0 = declined.value();
  nn::LstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 4;
  nn::LstmNet net(opt);
  serve::InferenceSession session(net);
  const Tensor x = random_tensor({2, 2, 8}, 52);
  set_planning_enabled(false);
  const Tensor tape = session.run(x);
  set_planning_enabled(true);
  expect_same_bits(tape, session.run(x));
  EXPECT_EQ(session.stats().forward_compile_declined, 0u);
  EXPECT_EQ(declined.value() - d0, 0u);
}

TEST(GraphSession, WeightsAreAPrivateCopy) {
  // The session copies the net at construction: refitting (here: zeroing)
  // the caller's parameters afterwards must not reach served forecasts.
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  opt.seed = 29;
  nn::RptcnNet net(opt);
  serve::InferenceSession session(net);
  const Tensor x = random_tensor({1, 3, 12}, 53);
  const Tensor before = session.run(x);
  for (Variable& p : net.parameters()) p.mutable_value().fill(0.0f);
  expect_same_bits(before, session.run(random_tensor({1, 3, 12}, 53)));
}

TEST(GraphSession, ShapeErrorNamesExpectedAndCapturedShapes) {
  PlanningGuard guard;
  set_planning_enabled(true);
  nn::RptcnOptions opt;
  opt.input_features = 3;
  opt.tcn.channels = {6, 6};
  opt.fc_dim = 6;
  nn::RptcnNet net(opt);
  serve::InferenceSession session(net);
  (void)session.run(random_tensor({1, 3, 12}, 61));  // seeds the plan cache

  try {
    (void)session.run(random_tensor({2, 4, 12}, 62));  // wrong F
    FAIL() << "expected CheckError for wrong feature count";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("[N, 3, T]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("captured plans:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[1, 3, 12]"), std::string::npos) << msg;
  }

  EXPECT_THROW((void)session.run(random_tensor({4, 12}, 63)), CheckError);
}

// -- trainer planned_eval -----------------------------------------------------

models::ForecastDataset trainer_dataset() {
  Rng rng(17);
  const std::size_t length = 160;
  std::vector<double> target{0.5};
  for (std::size_t i = 1; i < length; ++i)
    target.push_back(std::clamp(
        0.5 + 0.85 * (target.back() - 0.5) + rng.normal(0.0, 0.02), 0.0, 1.0));
  data::TimeSeriesFrame frame;
  frame.add("cpu", target);

  data::WindowOptions wopt;
  wopt.window = 12;
  wopt.horizon = 1;
  auto split = data::chrono_split(data::make_windows(frame, "cpu", wopt));

  models::ForecastDataset ds;
  ds.train = std::move(split.train);
  ds.valid = std::move(split.valid);
  ds.test = std::move(split.test);
  ds.window = wopt.window;
  ds.horizon = wopt.horizon;
  ds.target_channel = 0;
  ds.target_series = target;
  ds.train_len = ds.train.samples() + wopt.window;
  ds.valid_len = ds.valid.samples();
  return ds;
}

TEST(GraphTrainer, PlannedEvalReproducesTapeLossCurves) {
  // planned_eval routes each epoch's validation pass through a fresh
  // capture; by the bit-identity contract the loss curves must match the
  // tape evaluation exactly, double for double.
  const auto ds = trainer_dataset();
  models::NnTrainConfig cfg;
  cfg.max_epochs = 2;
  cfg.patience = 2;
  cfg.seed = 9;
  nn::RptcnOptions opt;
  opt.tcn.channels = {4, 4};
  opt.fc_dim = 4;

  models::RptcnForecaster tape(cfg, opt);
  tape.fit(ds);

  cfg.planned_eval = true;
  models::RptcnForecaster planned(cfg, opt);
  planned.fit(ds);

  ASSERT_EQ(tape.curves().valid_loss.size(), planned.curves().valid_loss.size());
  for (std::size_t i = 0; i < tape.curves().valid_loss.size(); ++i)
    EXPECT_EQ(tape.curves().valid_loss[i], planned.curves().valid_loss[i]);
  ASSERT_EQ(tape.curves().train_loss.size(), planned.curves().train_loss.size());
  for (std::size_t i = 0; i < tape.curves().train_loss.size(); ++i)
    EXPECT_EQ(tape.curves().train_loss[i], planned.curves().train_loss[i]);
}

}  // namespace
}  // namespace rptcn::graph
