// Tests for the NN substrate beyond gradients: matrix kernels, the tape,
// optimizer behaviour, dropout statistics, parameter serialization, and
// graph-structure construction.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <span>
#include <sstream>
#include <vector>

#include "nn/gnn.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"

namespace tpuperf::nn {
namespace {

TEST(Matrix, MatMulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  float v = 1;
  for (float& x : a.flat()) x = v++;
  v = 1;
  for (float& x : b.flat()) x = v++;
  const Matrix c = MatMul(a, b);
  // [[1,2,3],[4,5,6]] @ [[1,2],[3,4],[5,6]] = [[22,28],[49,64]].
  EXPECT_FLOAT_EQ(c.at(0, 0), 22);
  EXPECT_FLOAT_EQ(c.at(0, 1), 28);
  EXPECT_FLOAT_EQ(c.at(1, 0), 49);
  EXPECT_FLOAT_EQ(c.at(1, 1), 64);
}

TEST(Matrix, TransposedMatMulsAgree) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<float> dist(-1, 1);
  Matrix a(4, 5), b(4, 3), c(3, 5);
  for (float& x : a.flat()) x = dist(rng);
  for (float& x : b.flat()) x = dist(rng);
  for (float& x : c.flat()) x = dist(rng);
  // a^T @ b: [5,4] x [4,3].
  EXPECT_LT(MaxAbsDiff(MatMulTransposeA(a, b), MatMul(Transpose(a), b)),
            1e-5f);
  // a @ c^T: [4,5] x [5,3].
  EXPECT_LT(MaxAbsDiff(MatMulTransposeB(a, c), MatMul(a, Transpose(c))),
            1e-5f);
}

TEST(Matrix, ShapeMismatchThrows) {
  EXPECT_THROW(MatMul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
  EXPECT_THROW(Add(Matrix(2, 3), Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(Hadamard(Matrix(2, 3), Matrix(2, 2)), std::invalid_argument);
}

TEST(Matrix, ColumnReductions) {
  Matrix m(3, 2);
  m.at(0, 0) = 1;
  m.at(1, 0) = 5;
  m.at(2, 0) = 3;
  m.at(0, 1) = -1;
  m.at(1, 1) = -5;
  m.at(2, 1) = -3;
  EXPECT_FLOAT_EQ(ColSum(m).at(0, 0), 9);
  EXPECT_FLOAT_EQ(ColMean(m).at(0, 1), -3);
  std::vector<int> argmax;
  const Matrix mx = ColMax(m, &argmax);
  EXPECT_FLOAT_EQ(mx.at(0, 0), 5);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_FLOAT_EQ(mx.at(0, 1), -1);
  EXPECT_EQ(argmax[1], 0);
}

TEST(Tape, NoGradModeRecordsNoBackward) {
  Tape tape(/*grad_enabled=*/false);
  Tensor a = tape.Leaf(Matrix::Constant(2, 2, 1.0f), /*requires_grad=*/true);
  Tensor b = MulOp(tape, a, a);
  EXPECT_FALSE(b.requires_grad());
  EXPECT_THROW(tape.Backward(SumAllOp(tape, b)), std::logic_error);
}

TEST(Tape, BackwardRequiresScalarLoss) {
  Tape tape(true);
  Tensor a = tape.Leaf(Matrix::Constant(2, 2, 1.0f), true);
  EXPECT_THROW(tape.Backward(a), std::invalid_argument);
}

TEST(Tape, GradientAccumulatesAcrossUses) {
  Tape tape(true);
  Tensor a = tape.Leaf(Matrix::Constant(1, 1, 3.0f), true);
  Tensor s = AddOp(tape, a, a);  // ds/da = 2
  tape.Backward(SumAllOp(tape, s));
  EXPECT_FLOAT_EQ(a.grad().at(0, 0), 2.0f);
}

TEST(Adam, ConvergesOnQuadratic) {
  ParamStore store;
  std::mt19937_64 rng(1);
  Parameter* p = store.Create("x", 1, 1, Init::kZero, rng);
  p->value.at(0, 0) = 5.0f;
  AdamConfig config;
  config.learning_rate = 0.1;
  Adam adam(config);
  const auto params = store.params();
  for (int i = 0; i < 300; ++i) {
    // d/dx (x - 2)^2 = 2 (x - 2).
    p->grad.at(0, 0) = 2.0f * (p->value.at(0, 0) - 2.0f);
    adam.Step(params);
  }
  EXPECT_NEAR(p->value.at(0, 0), 2.0f, 0.05f);
  EXPECT_EQ(adam.step_count(), 300);
}

TEST(Adam, GradClippingBoundsNorm) {
  ParamStore store;
  std::mt19937_64 rng(1);
  Parameter* p = store.Create("x", 1, 2, Init::kZero, rng);
  AdamConfig config;
  config.learning_rate = 0.0;  // isolate clipping bookkeeping
  config.clip = GradClip::kNorm;
  config.clip_norm = 1.0;
  Adam adam(config);
  p->grad.at(0, 0) = 30.0f;
  p->grad.at(0, 1) = 40.0f;
  adam.Step(store.params());
  EXPECT_NEAR(adam.last_grad_norm(), 50.0, 1e-6);
}

TEST(Adam, LearningRateDecay) {
  AdamConfig config;
  config.learning_rate = 1.0;
  config.lr_decay = 0.5;
  Adam adam(config);
  adam.DecayLearningRate();
  adam.DecayLearningRate();
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.25);
}

// Adam::Step as the plain scalar loop it used to be, copied verbatim: the
// reference its vectorized update must match bit for bit (same double
// operations, and the same FMAs wherever the compiler contracts these
// expressions).
double ReferenceAdamStep(const AdamConfig& config, long step,
                         std::span<Parameter* const> params) {
  double norm_sq = 0;
  for (const Parameter* p : params) {
    for (const float g : p->grad.flat()) {
      norm_sq += static_cast<double>(g) * g;
    }
  }
  const double grad_norm = std::sqrt(norm_sq);

  double scale = 1.0;
  if (config.clip == GradClip::kNorm && grad_norm > config.clip_norm &&
      grad_norm > 0) {
    scale = config.clip_norm / grad_norm;
  }

  const double bc1 = 1.0 - std::pow(config.beta1, step);
  const double bc2 = 1.0 - std::pow(config.beta2, step);
  for (Parameter* p : params) {
    if (p->adam_m.empty()) {
      p->adam_m = Matrix(p->value.rows(), p->value.cols());
      p->adam_v = Matrix(p->value.rows(), p->value.cols());
    }
    for (size_t i = 0; i < p->value.size(); ++i) {
      const double g = static_cast<double>(p->grad.data()[i]) * scale;
      const double m_new =
          config.beta1 * p->adam_m.data()[i] + (1.0 - config.beta1) * g;
      const double v_new =
          config.beta2 * p->adam_v.data()[i] + (1.0 - config.beta2) * g * g;
      p->adam_m.data()[i] = static_cast<float>(m_new);
      p->adam_v.data()[i] = static_cast<float>(v_new);
      const double m_hat = m_new / bc1;
      const double v_hat = v_new / bc2;
      p->value.data()[i] -= static_cast<float>(
          config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon));
    }
    p->grad.SetZero();
  }
  return grad_norm;
}

void ExpectBitEqualFloats(const Matrix& got, const Matrix& want,
                          const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << what << " flat index " << i;
  }
}

// Sizes 1, 3, 7, 8, 17 and 4101 put every tensor's tail (size mod the
// vector width) through the padded-lane path at least once; the clipped run
// clips on some steps and not on others.
TEST(Adam, StepIsBitIdenticalToScalarReference) {
  const int sizes[] = {1, 3, 7, 8, 17, 4101};
  for (const bool clip : {false, true}) {
    SCOPED_TRACE(clip ? "clip=norm" : "clip=none");
    AdamConfig config;
    config.learning_rate = 3e-3;
    config.clip = clip ? GradClip::kNorm : GradClip::kNone;
    config.clip_norm = 80.0;
    std::mt19937_64 rng(42);
    std::normal_distribution<float> normal(0.0f, 1.0f);
    std::vector<Parameter> got(std::size(sizes)), want(std::size(sizes));
    for (size_t t = 0; t < std::size(sizes); ++t) {
      got[t].value = Matrix(1, sizes[t]);
      for (float& v : got[t].value.flat()) v = normal(rng);
      got[t].grad = Matrix(1, sizes[t]);
      want[t].value = got[t].value;
      want[t].grad = Matrix(1, sizes[t]);
    }
    std::vector<Parameter*> got_ptrs, want_ptrs;
    for (size_t t = 0; t < got.size(); ++t) {
      got_ptrs.push_back(&got[t]);
      want_ptrs.push_back(&want[t]);
    }
    Adam adam(config);
    int clipped_steps = 0;
    for (long step = 1; step <= 240; ++step) {
      // Gradient scales that vary by step put the global norm on both
      // sides of clip_norm.
      const float spread = step % 5 == 0 ? 4.0f : 0.5f;
      for (size_t t = 0; t < got.size(); ++t) {
        for (size_t i = 0; i < got[t].grad.size(); ++i) {
          const float g = normal(rng) * spread;
          got[t].grad.data()[i] = g;
          want[t].grad.data()[i] = g;
        }
      }
      adam.Step(got_ptrs);
      const double norm = ReferenceAdamStep(config, step, want_ptrs);
      ASSERT_EQ(adam.last_grad_norm(), norm) << "step " << step;
      clipped_steps += norm > config.clip_norm;
    }
    EXPECT_GT(clipped_steps, 0);
    EXPECT_LT(clipped_steps, 240);
    for (size_t t = 0; t < got.size(); ++t) {
      const std::string what = "size " + std::to_string(sizes[t]);
      ExpectBitEqualFloats(got[t].value, want[t].value, what + " value");
      ExpectBitEqualFloats(got[t].adam_m, want[t].adam_m, what + " m");
      ExpectBitEqualFloats(got[t].adam_v, want[t].adam_v, what + " v");
      ExpectBitEqualFloats(got[t].grad, want[t].grad, what + " grad");
    }
  }
}

Matrix Uniform(int rows, int cols, std::mt19937_64& rng) {
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = dist(rng);
  return m;
}

// The gate pre-activation's dh GEMM runs on the caller's transposed weight
// (MatMulAccum) and must give exactly what MatMulTransposeBAccum gives on
// the weight itself.
TEST(LstmGatePreact, BackwardOnTransposedWeightMatchesTransposeBAccum) {
  std::mt19937_64 rng(5);
  const int hidden = 8, batch = 3, gates = 4 * hidden;
  const Matrix x_rows = Uniform(6, gates, rng);
  const Matrix h0 = Uniform(batch, hidden, rng);
  const Matrix w0 = Uniform(hidden, gates, rng);
  const Matrix bias0 = Uniform(1, gates, rng);
  const Matrix w_t = Transpose(w0);
  const std::vector<int> ids = {4, 0, 2};

  Tape tape(/*grad_enabled=*/true);
  Tensor x = tape.Leaf(x_rows);
  Tensor h = tape.Leaf(h0, /*requires_grad=*/true);
  Tensor w = tape.Leaf(w0);
  Tensor bias = tape.Leaf(bias0);
  Tensor y = LstmGatePreactOp(tape, x, ids, h, w, &w_t, bias);
  tape.Backward(SumAllOp(tape, y));  // dL/dy = 1 everywhere

  Matrix want(batch, hidden);
  Matrix ones(batch, gates);
  for (float& v : ones.flat()) v = 1.0f;
  MatMulTransposeBAccum(want, ones, w0);
  ExpectBitEqualFloats(h.grad(), want, "dh");

  Tape grad_tape(/*grad_enabled=*/true);
  EXPECT_THROW(LstmGatePreactOp(grad_tape, grad_tape.Leaf(x_rows), ids,
                                grad_tape.Leaf(h0, true), grad_tape.Leaf(w0),
                                nullptr, grad_tape.Leaf(bias0)),
               std::invalid_argument);
  Tape inference(/*grad_enabled=*/false);
  EXPECT_NO_THROW(LstmGatePreactOp(inference, inference.Leaf(x_rows), ids,
                                   inference.Leaf(h0), inference.Leaf(w0),
                                   nullptr, inference.Leaf(bias0)));
}

TEST(Dropout, InvertedScalingPreservesMeanAndZeroes) {
  Tape tape(true);
  std::mt19937_64 rng(7);
  Tensor x = tape.Leaf(Matrix::Constant(50, 50, 1.0f), true);
  Tensor y = DropoutOp(tape, x, 0.3f, rng);
  int zeros = 0;
  double total = 0;
  for (const float v : y.value().flat()) {
    if (v == 0.0f) ++zeros;
    total += v;
  }
  const double n = 2500.0;
  EXPECT_NEAR(zeros / n, 0.3, 0.05);
  EXPECT_NEAR(total / n, 1.0, 0.08);  // inverted dropout keeps expectation
  EXPECT_THROW(DropoutOp(tape, x, 1.0f, rng), std::invalid_argument);
}

TEST(ParamStore, SaveLoadRoundTrip) {
  std::mt19937_64 rng(11);
  ParamStore a;
  a.Create("w1", 3, 4, Init::kXavierUniform, rng);
  a.Create("w2", 2, 2, Init::kSmallNormal, rng);

  std::mt19937_64 rng2(99);  // different init values
  ParamStore b;
  Parameter* b1 = b.Create("w1", 3, 4, Init::kXavierUniform, rng2);
  Parameter* b2 = b.Create("w2", 2, 2, Init::kSmallNormal, rng2);

  std::stringstream stream;
  a.Save(stream);
  b.Load(stream);
  EXPECT_LT(MaxAbsDiff(b1->value, a.params()[0]->value), 0.0f + 1e-9f);
  EXPECT_LT(MaxAbsDiff(b2->value, a.params()[1]->value), 0.0f + 1e-9f);
}

TEST(ParamStore, LoadRejectsMismatch) {
  std::mt19937_64 rng(1);
  ParamStore a;
  a.Create("w", 2, 2, Init::kZero, rng);
  ParamStore b;
  b.Create("different", 2, 2, Init::kZero, rng);
  std::stringstream stream;
  a.Save(stream);
  EXPECT_THROW(b.Load(stream), std::runtime_error);
  ParamStore c;  // wrong count
  std::stringstream stream2;
  a.Save(stream2);
  EXPECT_THROW(c.Load(stream2), std::runtime_error);
}

TEST(GraphStructure, NormalizedAdjacency) {
  // 0 -> 2, 1 -> 2, 2 -> 3.
  const std::vector<std::vector<int>> operands = {{}, {}, {0, 1}, {2}};
  const GraphStructure gs = BuildGraphStructure(operands);
  // in_agg row 2 averages nodes 0 and 1.
  EXPECT_FLOAT_EQ(gs.in_agg.at(2, 0), 0.5f);
  EXPECT_FLOAT_EQ(gs.in_agg.at(2, 1), 0.5f);
  EXPECT_FLOAT_EQ(gs.in_agg.at(3, 2), 1.0f);
  // out_agg row 0: node 0 feeds node 2 only.
  EXPECT_FLOAT_EQ(gs.out_agg.at(0, 2), 1.0f);
  // Mask is symmetric with self-loops.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(gs.sym_mask.at(i, i), 1.0f);
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(gs.sym_mask.at(i, j), gs.sym_mask.at(j, i));
    }
  }
}

TEST(Lstm, ShapesAndDeterminism) {
  std::mt19937_64 rng(5);
  ParamStore store;
  Lstm lstm(store, "lstm", 6, 8, rng);
  Tape tape(false);
  Matrix x(4, 6);
  std::uniform_real_distribution<float> dist(-1, 1);
  for (float& v : x.flat()) v = dist(rng);
  const auto out1 = lstm.Forward(tape, tape.Leaf(x));
  EXPECT_EQ(out1.final_hidden.rows(), 1);
  EXPECT_EQ(out1.final_hidden.cols(), 8);
  EXPECT_EQ(out1.all_hidden.rows(), 4);
  Tape tape2(false);
  const auto out2 = lstm.Forward(tape2, tape2.Leaf(x));
  EXPECT_LT(MaxAbsDiff(out1.final_hidden.value(), out2.final_hidden.value()),
            1e-9f);
}

TEST(Mlp, DepthAndWidth) {
  std::mt19937_64 rng(5);
  ParamStore store;
  Mlp mlp(store, "m", 4, {8, 8, 2}, Activation::kRelu, rng);
  EXPECT_EQ(mlp.num_layers(), 3);
  EXPECT_EQ(mlp.out_features(), 2);
  Tape tape(false);
  Tensor y = mlp.Forward(tape, tape.Leaf(Matrix(5, 4)));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
}

TEST(Embedding, OutOfRangeThrows) {
  std::mt19937_64 rng(5);
  ParamStore store;
  Embedding emb(store, "e", 4, 3, rng);
  Tape tape(false);
  const std::vector<int> bad = {5};
  EXPECT_THROW(emb.Forward(tape, bad), std::out_of_range);
}

}  // namespace
}  // namespace tpuperf::nn
