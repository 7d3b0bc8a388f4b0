#include "nn/quant.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/env.h"
#include "core/thread_pool.h"

namespace tpuperf::nn {
namespace {

// ---- fp16 bit conversion ----------------------------------------------------
// Emulated in integer arithmetic (no __fp16 / _Float16 dependency) with
// round-to-nearest-even everywhere, matching IEEE 754 binary16.

std::uint32_t FloatBits(float v) noexcept {
  std::uint32_t u;
  static_assert(sizeof(u) == sizeof(v));
  __builtin_memcpy(&u, &v, sizeof(u));
  return u;
}

float BitsFloat(std::uint32_t u) noexcept {
  float v;
  __builtin_memcpy(&v, &u, sizeof(v));
  return v;
}

std::uint16_t FloatToHalfBits(float v) noexcept {
  const std::uint32_t bits = FloatBits(v);
  const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  std::uint32_t abs = bits & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // inf / NaN: keep NaN-ness (quietened)
    const std::uint16_t mant =
        abs > 0x7f800000u
            ? static_cast<std::uint16_t>(0x0200u | ((abs >> 13) & 0x3ffu))
            : std::uint16_t{0};
    return static_cast<std::uint16_t>(sign | 0x7c00u | mant);
  }
  if (abs >= 0x47800000u) {  // >= 2^16: overflows half, rounds to inf
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  if (abs >= 0x38800000u) {  // normal half range [2^-14, 65504]
    // Drop 13 mantissa bits with round-to-nearest-even, then rebias
    // (127 - 15 = 112). Rounding into the next exponent — including into
    // inf at the top — falls out of the carry.
    abs += 0xfffu + ((abs >> 13) & 1u);
    return static_cast<std::uint16_t>(sign | ((abs >> 13) - (112u << 10)));
  }
  if (abs < 0x33000000u) {  // < 2^-25: underflows to zero (RNE)
    return sign;
  }
  // Subnormal half: value = mant * 2^(exp-150); shift the explicit-1
  // mantissa so the result is in units of 2^-24, rounding to nearest even.
  const std::uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
  const int shift = 126 - static_cast<int>(abs >> 23);  // 14..24
  const std::uint32_t half_ulp = (1u << shift) >> 1;
  const std::uint32_t rounded =
      (mant + (half_ulp - 1u) + ((mant >> shift) & 1u)) >> shift;
  return static_cast<std::uint16_t>(sign | rounded);
}

float HalfBitsToFloat(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t em = h & 0x7fffu;  // exponent + mantissa
  if (em >= 0x7c00u) {                   // inf / NaN
    return BitsFloat(sign | 0x7f800000u | ((em & 0x3ffu) << 13));
  }
  if (em >= 0x0400u) {  // normal: rebias 15 -> 127
    return BitsFloat(sign | ((em << 13) + 0x38000000u));
  }
  // Subnormal (em in units of 2^-24) and zero.
  const float mag = std::ldexp(static_cast<float>(em), -24);
  return (h & 0x8000u) ? -mag : mag;
}

// ---- int8 GEMM scratch ------------------------------------------------------

struct QuantScratch {
  std::vector<std::int8_t> qa, qb;
  std::vector<float> sa, sb;
};

QuantScratch& Scratch() {
  thread_local QuantScratch s;
  return s;
}

std::int8_t QuantizeValue(float v, float scale) noexcept {
  if (scale <= 0.0f) return 0;
  const long q = std::lrintf(v / scale);
  return static_cast<std::int8_t>(q < -127 ? -127 : (q > 127 ? 127 : q));
}

// Quantizes the rows of `m` into q (row-major [rows, cols]) with one scale
// per row.
void QuantizeRowsInto(const Matrix& m, std::vector<std::int8_t>& q,
                      std::vector<float>& s) {
  const int rows = m.rows(), cols = m.cols();
  q.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
  s.resize(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    const auto row = m.row(i);
    float amax = 0.0f;
    for (float v : row) amax = std::max(amax, std::fabs(v));
    const float scale = QuantScaleForAmax(amax);
    s[static_cast<size_t>(i)] = scale;
    std::int8_t* dst = q.data() + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) dst[j] = QuantizeValue(row[j], scale);
  }
}

// Quantizes the columns of `m`: q holds m^T row-major ([cols, rows]) with
// one scale per source column.
void QuantizeColsInto(const Matrix& m, std::vector<std::int8_t>& q,
                      std::vector<float>& s) {
  const int rows = m.rows(), cols = m.cols();
  q.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
  s.resize(static_cast<size_t>(cols));
  for (int j = 0; j < cols; ++j) {
    float amax = 0.0f;
    for (int i = 0; i < rows; ++i) amax = std::max(amax, std::fabs(m.at(i, j)));
    s[static_cast<size_t>(j)] = QuantScaleForAmax(amax);
  }
  for (int j = 0; j < cols; ++j) {
    const float scale = s[static_cast<size_t>(j)];
    std::int8_t* dst = q.data() + static_cast<size_t>(j) * rows;
    for (int i = 0; i < rows; ++i) dst[i] = QuantizeValue(m.at(i, j), scale);
  }
}

// out[m_rows, n_rows] (+)= dequant(qa @ qb^T): exact int32 dots over the
// shared extent k, dequantized per element with a double scale product
// (float sa*sb can flush to zero at denormal-adjacent magnitudes). Rows are
// independent, so pool sharding cannot change any output bit.
void Int8ProductInto(Matrix& out, const std::int8_t* qa, const float* sa,
                     const std::int8_t* qb, const float* sb, int m_rows,
                     int n_rows, int k, bool accumulate) {
  const auto body = [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const std::int8_t* ra = qa + static_cast<size_t>(i) * k;
      const double si = sa[i];
      for (int j = 0; j < n_rows; ++j) {
        const std::int8_t* rb = qb + static_cast<size_t>(j) * k;
        std::int32_t acc = 0;
        for (int p = 0; p < k; ++p) {
          acc += static_cast<std::int32_t>(ra[p]) *
                 static_cast<std::int32_t>(rb[p]);
        }
        const float v = static_cast<float>(si * sb[j] * acc);
        float& dst = out.at(static_cast<int>(i), j);
        dst = accumulate ? dst + v : v;
      }
    }
  };
  if (m_rows >= 8 && core::ThreadPool::Global().size() > 1) {
    core::ParallelFor(0, m_rows, 4, body);
  } else {
    body(0, m_rows);
  }
}

// Beyond this inner extent the int32 accumulator could overflow
// (127*127*k must stay under 2^31); such products fall back builtin.
constexpr int kInt8MaxInnerExtent = 1 << 17;

// ---- Backends ---------------------------------------------------------------

class QuantInt8Backend final : public RoutedGemmBackend {
 public:
  std::string_view name() const noexcept override { return "quant-int8"; }

  GemmParityTolerance ParityBound(const Matrix& a, const Matrix& b,
                                  long long inner_extent) const override {
    // The derived per-element bound, with 1/16 slack for the f32 evaluation
    // of the double-computed bound and a kGemmParityRtol floor.
    const double bound = QuantGemmErrorBound(inner_extent, MaxAbs(a), MaxAbs(b));
    return {kQuantInt8ParityRtol,
            static_cast<float>(1.0625 * bound) + kGemmParityRtol};
  }

 protected:
  void DenseMatMul(Matrix& out, const Matrix& a, const Matrix& b,
                   bool accumulate) override {
    const int k = a.cols();
    if (k > kInt8MaxInnerExtent) {
      if (accumulate) {
        BuiltinGemmBackend().MatMulAccum(out, a, b);
      } else {
        BuiltinGemmBackend().MatMul(out, a, b);
      }
      return;
    }
    QuantScratch& s = Scratch();
    QuantizeRowsInto(a, s.qa, s.sa);
    QuantizeColsInto(b, s.qb, s.sb);
    Int8ProductInto(out, s.qa.data(), s.sa.data(), s.qb.data(), s.sb.data(),
                    a.rows(), b.cols(), k, accumulate);
  }

  void DenseTransposeA(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    const int k = a.rows();  // out = a^T @ b, a:[k,m] b:[k,n]
    if (k > kInt8MaxInnerExtent) {
      if (accumulate) {
        BuiltinGemmBackend().MatMulTransposeAAccum(out, a, b);
      } else {
        BuiltinGemmBackend().MatMulTransposeA(out, a, b);
      }
      return;
    }
    QuantScratch& s = Scratch();
    QuantizeColsInto(a, s.qa, s.sa);
    QuantizeColsInto(b, s.qb, s.sb);
    Int8ProductInto(out, s.qa.data(), s.sa.data(), s.qb.data(), s.sb.data(),
                    a.cols(), b.cols(), k, accumulate);
  }

  void DenseTransposeB(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    const int k = a.cols();  // out = a @ b^T, a:[m,k] b:[n,k]
    if (k > kInt8MaxInnerExtent) {
      if (accumulate) {
        BuiltinGemmBackend().MatMulTransposeBAccum(out, a, b);
      } else {
        BuiltinGemmBackend().MatMulTransposeB(out, a, b);
      }
      return;
    }
    QuantScratch& s = Scratch();
    QuantizeRowsInto(a, s.qa, s.sa);
    QuantizeRowsInto(b, s.qb, s.sb);
    Int8ProductInto(out, s.qa.data(), s.sa.data(), s.qb.data(), s.sb.data(),
                    a.rows(), b.rows(), k, accumulate);
  }
};

// Rounds both operands to binary16 and delegates to the built-in f32
// kernels, so the result associates exactly like the reference and the
// error is purely operand rounding (Fp16GemmErrorBound).
class Fp16Backend final : public RoutedGemmBackend {
 public:
  std::string_view name() const noexcept override { return "fp16"; }

  GemmParityTolerance ParityBound(const Matrix& a, const Matrix& b,
                                  long long inner_extent) const override {
    const double bound = Fp16GemmErrorBound(inner_extent, MaxAbs(a), MaxAbs(b));
    return {kFp16ParityRtol,
            static_cast<float>(1.0625 * bound) + kGemmParityRtol};
  }

 protected:
  void DenseMatMul(Matrix& out, const Matrix& a, const Matrix& b,
                   bool accumulate) override {
    Matrix& ha = RoundedCopyA(a);
    Matrix& hb = RoundedCopyB(b);
    if (accumulate) {
      BuiltinGemmBackend().MatMulAccum(out, ha, hb);
    } else {
      BuiltinGemmBackend().MatMul(out, ha, hb);
    }
  }

  void DenseTransposeA(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    Matrix& ha = RoundedCopyA(a);
    Matrix& hb = RoundedCopyB(b);
    if (accumulate) {
      BuiltinGemmBackend().MatMulTransposeAAccum(out, ha, hb);
    } else {
      BuiltinGemmBackend().MatMulTransposeA(out, ha, hb);
    }
  }

  void DenseTransposeB(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    Matrix& ha = RoundedCopyA(a);
    Matrix& hb = RoundedCopyB(b);
    if (accumulate) {
      BuiltinGemmBackend().MatMulTransposeBAccum(out, ha, hb);
    } else {
      BuiltinGemmBackend().MatMulTransposeB(out, ha, hb);
    }
  }

 private:
  static Matrix& RoundedCopyA(const Matrix& m) {
    thread_local Matrix scratch;
    scratch = m;
    Fp16RoundInPlace(scratch);
    return scratch;
  }
  static Matrix& RoundedCopyB(const Matrix& m) {
    thread_local Matrix scratch;
    scratch = m;
    Fp16RoundInPlace(scratch);
    return scratch;
  }
};

}  // namespace

std::string_view PrecisionName(Precision p) noexcept {
  switch (p) {
    case Precision::kFloat32:
      return "f32";
    case Precision::kInt8:
      return "int8";
    case Precision::kFp16:
      return "fp16";
  }
  return "f32";
}

Precision PrecisionFromEnv() noexcept {
  const int v = core::EnvEnum(
      "TPUPERF_PRECISION", static_cast<int>(Precision::kFloat32),
      {{"f32", static_cast<int>(Precision::kFloat32)},
       {"int8", static_cast<int>(Precision::kInt8)},
       {"fp16", static_cast<int>(Precision::kFp16)}});
  return static_cast<Precision>(v);
}

GemmBackend* ReducedPrecisionBackend(Precision p) {
  switch (p) {
    case Precision::kFloat32:
      return nullptr;
    case Precision::kInt8:
      return &GemmBackendByName("quant-int8");
    case Precision::kFp16:
      return &GemmBackendByName("fp16");
  }
  return nullptr;
}

float Fp16Round(float v) noexcept {
  return HalfBitsToFloat(FloatToHalfBits(v));
}

void Fp16RoundInPlace(Matrix& m) noexcept {
  for (float& v : m.flat()) v = Fp16Round(v);
}

void Fp16RoundRow(std::span<float> row) noexcept {
  for (float& v : row) v = Fp16Round(v);
}

float QuantScaleForAmax(float amax) noexcept {
  if (!(amax > 0.0f)) return 0.0f;
  return std::max(amax / 127.0f, FLT_MIN);
}

QuantizedMatrix QuantizeRowsInt8(const Matrix& m) {
  QuantizedMatrix q;
  q.rows = m.rows();
  q.cols = m.cols();
  QuantizeRowsInto(m, q.data, q.scales);
  return q;
}

Matrix DequantizeRowsInt8(const QuantizedMatrix& q) {
  Matrix m(q.rows, q.cols);
  for (int i = 0; i < q.rows; ++i) {
    const float s = q.scales[static_cast<size_t>(i)];
    for (int j = 0; j < q.cols; ++j) {
      m.at(i, j) = static_cast<float>(q.at(i, j)) * s;
    }
  }
  return m;
}

float MaxAbs(const Matrix& m) noexcept {
  float amax = 0.0f;
  for (float v : m.flat()) amax = std::max(amax, std::fabs(v));
  return amax;
}

double QuantGemmErrorBound(long long inner_extent, float amax_a,
                           float amax_b) noexcept {
  const double sa = QuantScaleForAmax(amax_a);
  const double sb = QuantScaleForAmax(amax_b);
  const double per_term = static_cast<double>(amax_a) * sb / 2.0 +
                          static_cast<double>(amax_b) * sa / 2.0 +
                          sa * sb / 4.0;
  return static_cast<double>(inner_extent) * per_term;
}

double Fp16GemmErrorBound(long long inner_extent, float amax_a,
                          float amax_b) noexcept {
  const double rel = std::ldexp(1.0, -10);   // 2 * 2^-11 operand rounding
  const double sub = std::ldexp(1.0, -24);   // subnormal absolute slop
  const double per_term =
      static_cast<double>(amax_a) * amax_b * rel +
      (static_cast<double>(amax_a) + amax_b + 1.0) * sub;
  return static_cast<double>(inner_extent) * per_term;
}

void FakeQuantRow(std::span<float> row, std::span<const float> scales) {
  if (row.size() != scales.size()) {
    throw std::invalid_argument("FakeQuantRow: row/scales width mismatch");
  }
  for (size_t j = 0; j < row.size(); ++j) {
    const float s = scales[j];
    if (s <= 0.0f) {
      row[j] = 0.0f;
      continue;
    }
    row[j] = static_cast<float>(QuantizeValue(row[j], s)) * s;
  }
}

void FakeQuantColumns(Matrix& m, std::span<const float> scales) {
  if (static_cast<size_t>(m.cols()) != scales.size()) {
    throw std::invalid_argument("FakeQuantColumns: scales width mismatch");
  }
  for (int i = 0; i < m.rows(); ++i) FakeQuantRow(m.row(i), scales);
}

std::vector<float> FakeQuantColumnsDynamic(Matrix& m) {
  std::vector<float> scales(static_cast<size_t>(m.cols()));
  for (int j = 0; j < m.cols(); ++j) {
    float amax = 0.0f;
    for (int i = 0; i < m.rows(); ++i) amax = std::max(amax, std::fabs(m.at(i, j)));
    scales[static_cast<size_t>(j)] = QuantScaleForAmax(amax);
  }
  FakeQuantColumns(m, scales);
  return scales;
}

std::vector<float> PerFeatureInt8Scales(std::span<const double> mins,
                                        std::span<const double> maxs) {
  if (mins.size() != maxs.size()) {
    throw std::invalid_argument("PerFeatureInt8Scales: mins/maxs mismatch");
  }
  std::vector<float> scales(mins.size());
  for (size_t j = 0; j < mins.size(); ++j) {
    // FeatureScaler maps [min, max] onto [0, 1] with clamping, so any
    // non-degenerate feature has transformed amax exactly 1.
    scales[j] = maxs[j] > mins[j] ? QuantScaleForAmax(1.0f) : 0.0f;
  }
  return scales;
}

namespace quant_internal {

void AppendReducedPrecisionBackends(
    std::vector<std::unique_ptr<GemmBackend>>& extras) {
  extras.push_back(std::make_unique<QuantInt8Backend>());
  extras.push_back(std::make_unique<Fp16Backend>());
}

}  // namespace quant_internal

}  // namespace tpuperf::nn
