// Int8 quantized weight snapshots for inference-only serving.
//
// A quantized snapshot is read straight from a fitted network by
// quantizing every GEMM-shaped weight matrix (LSTM packed gate weights,
// linear heads) per output channel with symmetric int8 scales
// (tensor/quant.h). At run time activations are quantized dynamically —
// one symmetric scale per GEMM call over the whole batch — the GEMM runs
// in int8 through the dispatched kernel (exact int32 accumulation, so the
// integer path is bit-identical in every arch tier), and the combined
// scale plus the float bias fold back in one dequantize pass. Biases and
// every non-GEMM op (gate sigmoids/tanh, elementwise cell updates, conv
// layers) stay float.
//
// Coverage: the LSTM-family nets (LstmNet, BiLstmNet, CnnLstm — the conv
// front-end of CnnLstm stays float, only its LSTM + head quantize). The
// RPTCN net is conv-bound and keeps the float planned path; an
// InferenceSession asked to quantize it serves float32 and reports
// quantized() == false.
//
// Accuracy is a contract, not an assumption: tests/test_golden_pipeline.cpp
// gates the quantized trajectory against the float32 fixture with explicit
// per-metric tolerances, and test_quant.cpp pins round-trip, saturation,
// and determinism behaviour (two quantizations of one snapshot are
// byte-identical).
#pragma once

#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace rptcn::nn {
class LstmNet;
class BiLstmNet;
class CnnLstm;
}  // namespace rptcn::nn

namespace rptcn::serve {

/// Linear layer with int8 weights: w is [out, in] per-row quantized; the
/// bias stays float ([out]; empty when absent).
struct QLinearSnap {
  QuantizedMatrix w;
  Tensor b;
};

/// LSTM packed gate weights [4H, F+H], per-row (= per gate unit) quantized;
/// gate biases stay float.
struct QLstmSnap {
  QuantizedMatrix w;
  Tensor b;
  std::size_t hidden = 0;
};

struct QLstmNetSnap {
  QLstmSnap lstm;
  QLinearSnap head;
};

struct QBiLstmNetSnap {
  QLstmSnap fwd;
  QLstmSnap bwd;
  QLinearSnap head;
};

struct QCnnLstmSnap {
  // The conv front-end stays float (im2col + float GEMM); CnnLstm's conv
  // has no weight norm, so its weight is the parameter itself.
  Tensor conv_w;  ///< [Cout, Cin, K]
  Tensor conv_b;  ///< [Cout]
  std::size_t conv_dilation = 1;
  std::ptrdiff_t conv_left_pad = -1;  ///< -1 = causal
  QLstmSnap lstm;
  QLinearSnap head;
};

// -- builders: quantize a fitted net (deterministic, byte-stable) ------------
QLstmNetSnap quantize(const nn::LstmNet& net);
QBiLstmNetSnap quantize(const nn::BiLstmNet& net);
QCnnLstmSnap quantize(const nn::CnnLstm& net);

// -- quantized eval forward runners: x [N, F, T] -> [N, horizon] -------------
Tensor forward(const QLstmNetSnap& snap, const Tensor& x);
Tensor forward(const QBiLstmNetSnap& snap, const Tensor& x);
Tensor forward(const QCnnLstmSnap& snap, const Tensor& x);

}  // namespace rptcn::serve
