#include "serve/quant.h"

#include <vector>

#include "autograd/ops.h"
#include "nn/cnn_lstm.h"
#include "nn/lstm.h"
#include "tensor/tensor_ops.h"

namespace rptcn::serve {

namespace {

QLinearSnap quantize_linear(const nn::Linear& layer) {
  const Tensor& w = layer.weight().value();
  QLinearSnap q;
  q.w = quantize_rows_symmetric(w.raw(), w.dim(0), w.dim(1));
  if (layer.bias().defined()) q.b = layer.bias().value();
  return q;
}

QLstmSnap quantize_lstm(const nn::Lstm& lstm) {
  const Tensor& w = lstm.gate_weights().value();
  QLstmSnap q;
  q.w = quantize_rows_symmetric(w.raw(), w.dim(0), w.dim(1));
  q.b = lstm.gate_biases().value();
  q.hidden = lstm.hidden_size();
  return q;
}

/// y[N, out] = dequant(int8_gemm(quant(x), qw)) + b. One dynamic symmetric
/// activation scale per call (whole batch), so a coalesced batch and a lone
/// row can round differently — the quantized path trades the float path's
/// batch invariance for throughput, which is why its accuracy is gated
/// rather than assumed.
Tensor qlinear_forward(const QuantizedMatrix& qw, const Tensor& b,
                       const Tensor& x) {
  const std::size_t n = x.dim(0), in = x.dim(1), out = qw.rows;
  RPTCN_CHECK(in == qw.cols, "quantized linear: input features "
                                 << in << " != weight cols " << qw.cols);
  const float a_scale = symmetric_scale(x.raw(), n * in);
  std::vector<std::int8_t> qa(n * in);
  quantize_with_scale(x.raw(), n * in, a_scale, qa.data());
  std::vector<std::int32_t> acc(n * out);
  gemm_s8_nt(n, out, in, qa.data(), qw.data.data(), acc.data());
  Tensor y({n, out});
  dequantize_bias(acc.data(), n, out, a_scale, qw.scales.data(),
                  b.empty() ? nullptr : b.raw(), y.raw());
  return y;
}

/// Mirror of nn::Lstm::forward with the gate GEMM quantized per step;
/// gate nonlinearities and the cell update stay float (dispatched kernels).
Tensor qlstm_forward(const QLstmSnap& s, const Tensor& x) {
  const std::size_t n = x.dim(0), t_len = x.dim(2), hid = s.hidden;
  Tensor h = Tensor::zeros({n, hid});
  Tensor c = Tensor::zeros({n, hid});
  for (std::size_t t = 0; t < t_len; ++t) {
    const Tensor xt = ag::fwd::time_slice(x, t);    // [N, F]
    const Tensor xh = ag::fwd::concat_cols(xt, h);  // [N, F+H]
    const Tensor pre = qlinear_forward(s.w, s.b, xh);  // [N, 4H]
    const Tensor i = rptcn::sigmoid(ag::fwd::slice_cols(pre, 0, hid));
    const Tensor f = rptcn::sigmoid(ag::fwd::slice_cols(pre, hid, hid));
    const Tensor g = rptcn::tanh_t(ag::fwd::slice_cols(pre, 2 * hid, hid));
    const Tensor o = rptcn::sigmoid(ag::fwd::slice_cols(pre, 3 * hid, hid));
    c = rptcn::add(rptcn::mul(f, c), rptcn::mul(i, g));
    h = rptcn::mul(o, rptcn::tanh_t(c));
  }
  return h;
}

Tensor qhead_forward(const QLinearSnap& head, const Tensor& h) {
  return qlinear_forward(head.w, head.b, h);
}

/// Float conv front-end, dispatch pinned to N=1 as on the float path.
Tensor conv_forward(const QCnnLstmSnap& s, const Tensor& x) {
  return ag::fwd::conv1d(x, s.conv_w, s.conv_b.empty() ? nullptr : &s.conv_b,
                         s.conv_dilation, s.conv_left_pad, /*dispatch_n=*/1);
}

}  // namespace

QLstmNetSnap quantize(const nn::LstmNet& net) {
  return {quantize_lstm(net.lstm()), quantize_linear(net.head())};
}

QBiLstmNetSnap quantize(const nn::BiLstmNet& net) {
  return {quantize_lstm(net.forward_lstm()), quantize_lstm(net.backward_lstm()),
          quantize_linear(net.head())};
}

QCnnLstmSnap quantize(const nn::CnnLstm& net) {
  const nn::Conv1d& conv = net.conv();
  RPTCN_CHECK(!conv.options().weight_norm,
              "quantize: CnnLstm conv is expected without weight norm");
  QCnnLstmSnap q;
  q.conv_w = conv.weight_v().value();
  if (conv.bias().defined()) q.conv_b = conv.bias().value();
  q.conv_dilation = conv.options().dilation;
  q.conv_left_pad = conv.options().causal ? -1 : 0;
  q.lstm = quantize_lstm(net.lstm());
  q.head = quantize_linear(net.head());
  return q;
}

Tensor forward(const QLstmNetSnap& snap, const Tensor& x) {
  return qhead_forward(snap.head, qlstm_forward(snap.lstm, x));
}

Tensor forward(const QBiLstmNetSnap& snap, const Tensor& x) {
  const Tensor h_fwd = qlstm_forward(snap.fwd, x);
  const Tensor h_bwd = qlstm_forward(snap.bwd, ag::fwd::time_reverse(x));
  return qhead_forward(snap.head, ag::fwd::concat_cols(h_fwd, h_bwd));
}

Tensor forward(const QCnnLstmSnap& snap, const Tensor& x) {
  const Tensor h = rptcn::relu(conv_forward(snap, x));
  return qhead_forward(snap.head, qlstm_forward(snap.lstm, h));
}

}  // namespace rptcn::serve
