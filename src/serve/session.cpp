#include "serve/session.h"

#include <algorithm>
#include <sstream>

#include "graph/train.h"
#include "models/nn_forecasters.h"

namespace rptcn::serve {

namespace {

/// Fitted-net guard shared by the forecaster constructor branches.
template <typename Net>
const Net& require_net(const Net* net, const std::string& name) {
  RPTCN_CHECK(net != nullptr,
              "InferenceSession: forecaster \"" << name
                                                << "\" must be fitted first");
  return *net;
}

/// Null-checked deref so the delegating constructor below never dereferences
/// an empty shared_ptr.
models::Forecaster& require_forecaster(
    const std::shared_ptr<models::Forecaster>& forecaster) {
  RPTCN_CHECK(forecaster != nullptr, "InferenceSession: null forecaster");
  return *forecaster;
}

/// Deep copy: a fresh net of the same options with every parameter value
/// copied in, so the session never shares storage with the caller's net.
template <typename Net>
std::unique_ptr<Net> copy_net(const Net& net) {
  auto copy = std::make_unique<Net>(net.options());
  const std::vector<Variable> src = net.parameters();
  std::vector<Variable> dst = copy->parameters();
  RPTCN_CHECK(src.size() == dst.size(),
              "InferenceSession: network copy has a different parameter list");
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i].mutable_value() = src[i].value();
  return copy;
}

}  // namespace

InferenceSession::InferenceSession(std::shared_ptr<models::Forecaster> forecaster)
    : InferenceSession(require_forecaster(forecaster)) {
  // Only delegating sessions need the keep-alive; a network copy is
  // self-contained and holding the forecaster would double its weights.
  if (delegate_ != nullptr) owner_ = std::move(forecaster);
}

InferenceSession::InferenceSession(models::Forecaster& forecaster)
    : name_(forecaster.name()) {
  if (const auto* rptcn = dynamic_cast<const models::RptcnForecaster*>(&forecaster)) {
    init(require_net(rptcn->net(), name_));
  } else if (const auto* tcn = dynamic_cast<const models::TcnForecaster*>(&forecaster)) {
    init(require_net(tcn->net(), name_));
  } else if (const auto* lstm = dynamic_cast<const models::LstmForecaster*>(&forecaster)) {
    init(require_net(lstm->net(), name_));
  } else if (const auto* bilstm = dynamic_cast<const models::BiLstmForecaster*>(&forecaster)) {
    init(require_net(bilstm->net(), name_));
  } else if (const auto* cnnlstm = dynamic_cast<const models::CnnLstmForecaster*>(&forecaster)) {
    init(require_net(cnnlstm->net(), name_));
  } else {
    // No tensor weights (ARIMA, XGBoost): serve through the forecaster's own
    // batch-invariant predict(), serialised by forward_mutex_.
    delegate_ = &forecaster;
  }
}

InferenceSession::InferenceSession(const nn::RptcnNet& net)
    : name_("RPTCN") {
  init(net);
}

InferenceSession::InferenceSession(const nn::LstmNet& net)
    : name_("LSTM") {
  init(net);
}

InferenceSession::InferenceSession(const nn::BiLstmNet& net)
    : name_("BiLSTM") {
  init(net);
}

InferenceSession::InferenceSession(const nn::CnnLstm& net)
    : name_("CNN-LSTM") {
  init(net);
}

InferenceSession::InferenceSession(std::string name,
                                   std::unique_ptr<nn::Module> net,
                                   ForwardFn forward, std::size_t horizon,
                                   std::size_t input_features)
    : name_(std::move(name)),
      horizon_(horizon),
      input_features_(input_features) {
  RPTCN_CHECK(net != nullptr && forward != nullptr,
              "InferenceSession: network and forward are required");
  serve_net(std::move(net), std::move(forward));
}

template <typename Net>
void InferenceSession::init(const Net& net) {
  horizon_ = net.options().horizon;
  input_features_ = net.options().input_features;
  std::unique_ptr<Net> copy = copy_net(net);
  Net* raw = copy.get();
  serve_net(std::move(copy),
            [raw](const Variable& x) { return raw->forward(x); });
}

void InferenceSession::serve_net(std::unique_ptr<nn::Module> net,
                                 ForwardFn forward) {
  net_ = std::move(net);
  net_->set_training(false);
  forward_ = std::move(forward);
  // dispatch_n = 1: a coalesced batch replays every row exactly as its own
  // N=1 forward. The probe runs the copy's forward, hence the mutex.
  plans_ = std::make_unique<graph::PlanCache>(
      [this](std::size_t n, std::size_t f, std::size_t t) {
        std::lock_guard<std::mutex> lock(forward_mutex_);
        auto exec = graph::compile_forward(forward_, n, f, t, /*dispatch_n=*/1);
        if (exec == nullptr) declined_.fetch_add(1, std::memory_order_relaxed);
        return exec;
      });
}

std::string InferenceSession::expected_shape() const {
  std::ostringstream os;
  os << "[N, ";
  if (input_features_ != 0)
    os << input_features_;
  else
    os << "F";
  os << ", T]";
  if (plans_ != nullptr) {
    const auto shapes = plans_->shapes();
    if (!shapes.empty()) {
      os << " (captured plans:";
      for (const auto& s : shapes)
        os << " [" << s[0] << ", " << s[1] << ", " << s[2] << "]";
      os << ")";
    }
  }
  return os.str();
}

Tensor InferenceSession::tape_forward(const Tensor& inputs) const {
  const std::size_t n = inputs.dim(0), f = inputs.dim(1), t = inputs.dim(2);
  Tensor out({n, horizon_});
  std::lock_guard<std::mutex> lock(forward_mutex_);
  NoGradScope no_grad;
  for (std::size_t i = 0; i < n; ++i) {
    Tensor row({1, f, t});
    std::copy_n(inputs.raw() + i * f * t, f * t, row.raw());
    const Tensor y = forward_(Variable(std::move(row))).value();
    RPTCN_CHECK(y.size() == horizon_, "InferenceSession: model \""
                                          << name_ << "\" produced "
                                          << y.shape_string() << " for one row");
    std::copy_n(y.raw(), horizon_, out.raw() + i * horizon_);
  }
  return out;
}

Tensor InferenceSession::run(const Tensor& inputs) const {
  RPTCN_CHECK(inputs.rank() == 3, "InferenceSession::run: model \""
                                      << name_ << "\" expects "
                                      << expected_shape() << ", got "
                                      << inputs.shape_string());
  if (delegate_ != nullptr) {
    runs_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(forward_mutex_);
    return delegate_->predict(inputs);
  }
  RPTCN_CHECK(input_features_ == 0 || inputs.dim(1) == input_features_,
              "InferenceSession: model \""
                  << name_ << "\" expects " << expected_shape() << ", got "
                  << inputs.shape_string());
  runs_.fetch_add(1, std::memory_order_relaxed);
  if (graph::planning_enabled()) {
    const auto exec = plans_->get(inputs.dim(0), inputs.dim(1), inputs.dim(2));
    if (exec != nullptr) return exec->run(inputs);
  }
  return tape_forward(inputs);
}

}  // namespace rptcn::serve
