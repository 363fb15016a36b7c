// InferenceSession: immutable, thread-safe inference over a fitted
// Forecaster.
//
// Construction takes a private, eval-mode deep copy of the forecaster's
// network (a fresh net built from net.options() with the parameter values
// copied in), so the caller's forecaster may be refit or freed afterwards.
// run() replays a forward-only program the tape-trace compiler built from
// that copy's own forward (graph::compile_forward, see graph/train.h): one
// PlanCache entry per input shape [N, F, T], compiled on first use with
// every conv's dispatch pinned to its N=1 decision, so each output row is
// bit-identical to the unbatched (N=1) autograd forward of its window. Any
// number of threads may call run() concurrently.
//
// One fallback, not a second forward: when planning is disabled
// (RPTCN_DISABLE_PLAN=1 / graph::set_planning_enabled(false)) or the
// compiler declines a shape, run() serves the copy's tape forward one row
// at a time under a mutex — batch-invariant by construction. A declined
// compile is never silent: it bumps graph/forward_compile_declined and
// stats().forward_compile_declined.
//
// Non-tensor models (ARIMA, XGBoost) have no network to copy; for those
// the session delegates run() to the forecaster's own predict() behind a
// mutex (their per-sample prediction loops are batch-invariant, so results
// still match the unbatched path bit-for-bit). Construct from a
// shared_ptr<Forecaster> and the session shares ownership of the delegate,
// so it can never dangle; with the reference constructor the forecaster
// must outlive the session. Network sessions carry no reference back.
//
// Hot-swap safety is structural: the plan cache lives and dies with its
// session, so a BatchingEngine swap installs a fresh cache and stale plans
// can never see new weights.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "autograd/variable.h"
#include "graph/plan.h"
#include "tensor/tensor.h"

namespace rptcn::models {
class Forecaster;
}

namespace rptcn::nn {
class Module;
class RptcnNet;
class LstmNet;
class BiLstmNet;
class CnnLstm;
}  // namespace rptcn::nn

namespace rptcn::serve {

/// Per-session run accounting (monotonic since construction).
struct SessionStats {
  std::uint64_t runs = 0;  ///< run() calls that dispatched a forward
  /// Input shapes whose forward compile the compiler declined; their runs
  /// serve the tape fallback. Planning disabled on purpose is not a decline.
  std::uint64_t forward_compile_declined = 0;
};

class InferenceSession {
 public:
  /// An eval-mode network forward: x [N, F, T] -> [N, horizon].
  using ForwardFn = std::function<Variable(const Variable&)>;

  /// Copy a fitted forecaster's network (any registry model). Neural
  /// forecasters must have been fit() or restore()d first.
  explicit InferenceSession(models::Forecaster& forecaster);

  /// Same, but the session co-owns the forecaster while it delegates
  /// (non-tensor models) — the delegate cannot be freed under a live
  /// session no matter how the caller sequences teardown. Network models
  /// release the forecaster immediately; the copy is self-contained.
  explicit InferenceSession(std::shared_ptr<models::Forecaster> forecaster);

  // Direct copies of a network, for callers that own the net itself.
  explicit InferenceSession(const nn::RptcnNet& net);
  explicit InferenceSession(const nn::LstmNet& net);
  explicit InferenceSession(const nn::BiLstmNet& net);
  explicit InferenceSession(const nn::CnnLstm& net);

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Batched forward: inputs [N, F, T] -> predictions [N, horizon].
  /// Thread-safe. Each output row is bit-identical to the unbatched (N=1)
  /// autograd forward of the same window.
  Tensor run(const Tensor& inputs) const;

  const std::string& model_name() const { return name_; }
  /// Forecast steps per request; 0 when unknown (delegated models).
  std::size_t horizon() const { return horizon_; }
  /// Expected feature count F; 0 when unknown (delegated models).
  std::size_t input_features() const { return input_features_; }

  /// Snapshot of this session's run accounting. Thread-safe; counts relaxed
  /// (a concurrent reader may be one run behind a racing writer).
  SessionStats stats() const {
    SessionStats s;
    s.runs = runs_.load(std::memory_order_relaxed);
    s.forward_compile_declined = declined_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend struct SessionTestAccess;

  /// Serve `net` through an arbitrary `forward` (tests only, through
  /// SessionTestAccess: a forward the compiler declines). The session takes
  /// sole ownership of `net` and switches it to evaluation. Leaves created
  /// inside `forward` (Variable(Tensor), detach()) are baked as the probe
  /// saw them, like the registry nets' zero initial LSTM state.
  InferenceSession(std::string name, std::unique_ptr<nn::Module> net,
                   ForwardFn forward, std::size_t horizon,
                   std::size_t input_features);
  /// Shared body of the typed network constructors.
  template <typename Net>
  void init(const Net& net);
  /// Own `net`, switch it to evaluation and seed the plan cache.
  void serve_net(std::unique_ptr<nn::Module> net, ForwardFn forward);
  /// The copy's tape forward, one row at a time.
  Tensor tape_forward(const Tensor& inputs) const;
  /// Expected input shape for error messages: "[N, F, T]" plus the shapes
  /// already compiled by the plan cache.
  std::string expected_shape() const;

  std::string name_;
  std::size_t horizon_ = 0;
  std::size_t input_features_ = 0;
  /// The private eval-mode network and its forward; null for delegated
  /// sessions.
  std::unique_ptr<nn::Module> net_;
  ForwardFn forward_;
  /// Shape-keyed planned executables (null entries: compile declined).
  std::unique_ptr<graph::PlanCache> plans_;
  models::Forecaster* delegate_ = nullptr;  ///< set iff no network
  /// Keeps `delegate_` alive when constructed from a shared_ptr.
  std::shared_ptr<models::Forecaster> owner_;
  /// Serialises the net's forward (tape fallback, compile probe) and the
  /// delegate's predict: neither is safe to run concurrently.
  mutable std::mutex forward_mutex_;
  mutable std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> declined_{0};
};

}  // namespace rptcn::serve
