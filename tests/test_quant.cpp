// Int8 quantization tests: the tensor/quant.h primitives (round-trip,
// saturation, degenerate rows, byte-identical determinism) and the
// serve/quant.h quantized serving path (accuracy vs float32, quantized()
// truth-telling, cross-tier bit-stability of the integer path).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "nn/cnn_lstm.h"
#include "nn/lstm.h"
#include "nn/rptcn_net.h"
#include "serve/quant.h"
#include "serve/session.h"
#include "tensor/dispatch.h"
#include "tensor/quant.h"
#include "tensor/tensor_ops.h"

namespace rptcn {
namespace {

TEST(Quant, PerChannelRoundTripWithinHalfStep) {
  Rng rng(11);
  const std::size_t rows = 6, cols = 37;
  std::vector<float> w(rows * cols);
  // Rows at wildly different magnitudes: per-channel scales must adapt.
  for (std::size_t i = 0; i < rows; ++i) {
    const double mag = std::pow(10.0, static_cast<double>(i) - 3.0);
    for (std::size_t j = 0; j < cols; ++j)
      w[i * cols + j] = static_cast<float>(rng.normal(0.0, mag));
  }
  const QuantizedMatrix q = quantize_rows_symmetric(w.data(), rows, cols);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  ASSERT_EQ(q.data.size(), rows * cols);
  ASSERT_EQ(q.scales.size(), rows);
  for (std::size_t i = 0; i < rows; ++i) {
    float max_abs = 0.0f;
    for (std::size_t j = 0; j < cols; ++j)
      max_abs = std::max(max_abs, std::abs(w[i * cols + j]));
    EXPECT_FLOAT_EQ(q.scales[i], max_abs / 127.0f);
    for (std::size_t j = 0; j < cols; ++j) {
      const float back =
          static_cast<float>(q.data[i * cols + j]) * q.scales[i];
      EXPECT_NEAR(back, w[i * cols + j], q.scales[i] * 0.5f + 1e-12f)
          << "row " << i << " col " << j;
    }
  }
}

TEST(Quant, SaturationClampsToSymmetricRange) {
  const float x[] = {300.0f, -300.0f, 127.4f, -127.6f, 5.0f, -5.0f, 0.0f};
  std::int8_t q[7];
  quantize_with_scale(x, 7, 1.0f, q);
  EXPECT_EQ(q[0], 127);    // clamps high
  EXPECT_EQ(q[1], -127);   // clamps low — never -128, the range is symmetric
  EXPECT_EQ(q[2], 127);
  EXPECT_EQ(q[3], -127);
  EXPECT_EQ(q[4], 5);
  EXPECT_EQ(q[5], -5);
  EXPECT_EQ(q[6], 0);

  // Ties round to even (nearbyintf under the default FP environment).
  const float ties[] = {2.5f, 3.5f, -2.5f, -3.5f};
  std::int8_t t[4];
  quantize_with_scale(ties, 4, 1.0f, t);
  EXPECT_EQ(t[0], 2);
  EXPECT_EQ(t[1], 4);
  EXPECT_EQ(t[2], -2);
  EXPECT_EQ(t[3], -4);
}

TEST(Quant, MaxMagnitudeMapsToExactly127) {
  Rng rng(13);
  std::vector<float> w(64);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 1.0));
  w[17] = 3.25f;  // strictly the largest magnitude
  const QuantizedMatrix q = quantize_rows_symmetric(w.data(), 1, w.size());
  EXPECT_EQ(q.data[17], 127);
  EXPECT_FLOAT_EQ(static_cast<float>(q.data[17]) * q.scales[0], 3.25f);
}

TEST(Quant, ZeroRowIsDegenerateButExact) {
  std::vector<float> w(2 * 9, 0.0f);
  w[9] = 0.5f;  // second row non-zero, first row all zeros
  const QuantizedMatrix q = quantize_rows_symmetric(w.data(), 2, 9);
  EXPECT_FLOAT_EQ(q.scales[0], 1.0f);
  for (std::size_t j = 0; j < 9; ++j) EXPECT_EQ(q.data[j], 0);
  EXPECT_FLOAT_EQ(q.scales[1], 0.5f / 127.0f);
  EXPECT_FLOAT_EQ(symmetric_scale(w.data(), 9), 1.0f);
}

TEST(Quant, QuantizationIsByteIdenticallyDeterministic) {
  Rng rng(17);
  std::vector<float> w(5 * 33);
  for (float& v : w) v = static_cast<float>(rng.normal(0.0, 2.0));
  const QuantizedMatrix a = quantize_rows_symmetric(w.data(), 5, 33);
  const QuantizedMatrix b = quantize_rows_symmetric(w.data(), 5, 33);
  ASSERT_EQ(a.data.size(), b.data.size());
  EXPECT_EQ(std::memcmp(a.data.data(), b.data.data(), a.data.size()), 0);
  EXPECT_EQ(std::memcmp(a.scales.data(), b.scales.data(),
                        a.scales.size() * sizeof(float)),
            0);
}

TEST(Quant, SignFlippedWeightsQuantizeToSignFlippedCodes) {
  Rng rng(19);
  std::vector<float> w(3 * 21), neg(3 * 21);
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(rng.normal(0.0, 1.0));
    neg[i] = -w[i];
  }
  const QuantizedMatrix qp = quantize_rows_symmetric(w.data(), 3, 21);
  const QuantizedMatrix qn = quantize_rows_symmetric(neg.data(), 3, 21);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_FLOAT_EQ(qp.scales[i], qn.scales[i]);
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_EQ(static_cast<int>(qp.data[i]), -static_cast<int>(qn.data[i]))
        << i;
}

TEST(Quant, GemmS8NtMatchesReference) {
  Rng rng(23);
  const std::size_t m = 7, n = 13, k = 41;
  std::vector<std::int8_t> a(m * k), b(n * k);
  for (auto& v : a)
    v = static_cast<std::int8_t>(rng.uniform_int(0, 254) - 127);
  for (auto& v : b)
    v = static_cast<std::int8_t>(rng.uniform_int(0, 254) - 127);
  std::vector<std::int32_t> c(m * n, -7);
  gemm_s8_nt(m, n, k, a.data(), b.data(), c.data());
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::size_t p = 0; p < k; ++p)
        acc += static_cast<std::int32_t>(a[i * k + p]) *
               static_cast<std::int32_t>(b[j * k + p]);
      ASSERT_EQ(c[i * n + j], acc) << i << "," << j;
    }
}

TEST(Quant, DequantizeBiasFoldsScalesAndBias) {
  const std::int32_t c[] = {10, -20, 30, 40};
  const float w_scales[] = {0.5f, 0.25f};
  const float bias[] = {1.0f, -1.0f};
  float out[4];
  dequantize_bias(c, 2, 2, 2.0f, w_scales, bias, out);
  EXPECT_FLOAT_EQ(out[0], 10.0f * (2.0f * 0.5f) + 1.0f);
  EXPECT_FLOAT_EQ(out[1], -20.0f * (2.0f * 0.25f) - 1.0f);
  EXPECT_FLOAT_EQ(out[2], 30.0f * (2.0f * 0.5f) + 1.0f);
  EXPECT_FLOAT_EQ(out[3], 40.0f * (2.0f * 0.25f) - 1.0f);

  float no_bias[4];
  dequantize_bias(c, 2, 2, 2.0f, w_scales, nullptr, no_bias);
  EXPECT_FLOAT_EQ(no_bias[0], 10.0f);
  EXPECT_FLOAT_EQ(no_bias[3], 20.0f);
}

Tensor random_batch(std::size_t n, std::size_t f, std::size_t t,
                    std::uint64_t seed) {
  Rng rng(seed);
  Tensor x({n, f, t});
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));
  return x;
}

/// Accuracy gate shared by the per-net session tests: the int8 path must
/// track the float32 path closely on normalised [0,1]-style inputs.
void expect_quantized_close(const Tensor& quant, const Tensor& fp32) {
  ASSERT_EQ(quant.size(), fp32.size());
  double se = 0.0;
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < quant.size(); ++i) {
    const double d = static_cast<double>(quant.raw()[i]) -
                     static_cast<double>(fp32.raw()[i]);
    se += d * d;
    max_abs = std::max(max_abs, std::abs(static_cast<float>(d)));
  }
  const double mse = se / static_cast<double>(quant.size());
  EXPECT_LT(mse, 1e-4) << "quantized MSE vs float32";
  EXPECT_LT(max_abs, 0.05f) << "quantized max abs error vs float32";
}

TEST(Quant, LstmSessionServesInt8CloseToFloat) {
  nn::LstmNetOptions opt;
  opt.input_features = 3;
  opt.hidden = 8;
  opt.horizon = 2;
  opt.seed = 29;
  nn::LstmNet net(opt);
  serve::InferenceSession fp32(net);
  serve::InferenceSession q(net, serve::SessionOptions{true});
  EXPECT_FALSE(fp32.quantized());
  EXPECT_TRUE(q.quantized());

  const Tensor x = random_batch(5, 3, 16, 31);
  const Tensor yf = fp32.run(x);
  const Tensor yq = q.run(x);
  ASSERT_EQ(yq.dim(0), 5u);
  ASSERT_EQ(yq.dim(1), 2u);
  expect_quantized_close(yq, yf);

  // Two runs of the quantized session are bit-identical.
  const Tensor again = q.run(x);
  EXPECT_EQ(std::memcmp(yq.raw(), again.raw(), yq.size() * sizeof(float)),
            0);

  // Every quantized run bypassed the plan cache, and says so; the float
  // session served planned executables and reports zero bypasses.
  const serve::SessionStats qs = q.stats();
  EXPECT_EQ(qs.runs, 2u);
  EXPECT_EQ(qs.plan_bypass_quantized, 2u);
  const serve::SessionStats fs = fp32.stats();
  EXPECT_EQ(fs.runs, 1u);
  EXPECT_EQ(fs.plan_bypass_quantized, 0u);
}

TEST(Quant, BiLstmSessionServesInt8CloseToFloat) {
  nn::BiLstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 6;
  opt.horizon = 1;
  opt.seed = 37;
  nn::BiLstmNet net(opt);
  serve::InferenceSession fp32(net);
  serve::InferenceSession q(net, serve::SessionOptions{true});
  EXPECT_TRUE(q.quantized());
  const Tensor x = random_batch(4, 2, 12, 41);
  expect_quantized_close(q.run(x), fp32.run(x));
}

TEST(Quant, CnnLstmSessionServesInt8CloseToFloat) {
  nn::CnnLstmOptions opt;
  opt.input_features = 2;
  opt.conv_channels = 4;
  opt.hidden = 6;
  opt.horizon = 1;
  opt.seed = 43;
  nn::CnnLstm net(opt);
  serve::InferenceSession fp32(net);
  serve::InferenceSession q(net, serve::SessionOptions{true});
  EXPECT_TRUE(q.quantized());
  const Tensor x = random_batch(4, 2, 12, 47);
  expect_quantized_close(q.run(x), fp32.run(x));
}

TEST(Quant, RptcnSessionIgnoresQuantizationAndSaysSo) {
  nn::RptcnOptions opt;
  opt.input_features = 2;
  opt.tcn.channels = {4, 4};
  opt.fc_dim = 4;
  opt.seed = 53;
  nn::RptcnNet net(opt);
  serve::InferenceSession fp32(net);
  serve::InferenceSession q(net, serve::SessionOptions{true});
  EXPECT_FALSE(q.quantized()) << "RPTCN is conv-bound and must stay float";

  const Tensor x = random_batch(3, 2, 16, 59);
  const Tensor yf = fp32.run(x);
  const Tensor yq = q.run(x);
  EXPECT_EQ(std::memcmp(yq.raw(), yf.raw(), yq.size() * sizeof(float)), 0)
      << "the declined-quantization session must serve the float path "
         "bit-identically";
  EXPECT_EQ(q.stats().plan_bypass_quantized, 0u)
      << "a declined quantization request must not count as a plan bypass";
}

TEST(Quant, QuantizedServingIsBitIdenticalAcrossTiers) {
  // The int8 GEMM accumulates exactly and the float gates go through the
  // bit-identical dispatched vexp/vtanh, so the quantized output must not
  // depend on the kernel tier at all.
  const KernelArch saved = kernel_arch();
  nn::LstmNetOptions opt;
  opt.input_features = 3;
  opt.hidden = 8;
  opt.seed = 61;
  nn::LstmNet net(opt);
  serve::InferenceSession q(net, serve::SessionOptions{true});
  ASSERT_TRUE(q.quantized());
  const Tensor x = random_batch(4, 3, 16, 67);

  set_kernel_arch_for_testing(KernelArch::kScalar);
  const Tensor scalar_out = q.run(x);
  set_kernel_arch_for_testing(best_supported_arch());
  const Tensor best_out = q.run(x);
  set_kernel_arch_for_testing(saved);

  EXPECT_EQ(std::memcmp(scalar_out.raw(), best_out.raw(),
                        scalar_out.size() * sizeof(float)),
            0)
      << "quantized serving diverged between scalar and "
      << kernel_arch_name(best_supported_arch());
}

TEST(Quant, SnapshotQuantizationIsDeterministic) {
  nn::LstmNetOptions opt;
  opt.input_features = 2;
  opt.hidden = 5;
  opt.seed = 71;
  nn::LstmNet net(opt);
  const serve::QLstmNetSnap a = serve::quantize(net);
  const serve::QLstmNetSnap b = serve::quantize(net);
  ASSERT_EQ(a.lstm.w.data.size(), b.lstm.w.data.size());
  EXPECT_EQ(std::memcmp(a.lstm.w.data.data(), b.lstm.w.data.data(),
                        a.lstm.w.data.size()),
            0);
  EXPECT_EQ(std::memcmp(a.head.w.data.data(), b.head.w.data.data(),
                        a.head.w.data.size()),
            0);
  EXPECT_EQ(a.lstm.hidden, 5u);
}

}  // namespace
}  // namespace rptcn
