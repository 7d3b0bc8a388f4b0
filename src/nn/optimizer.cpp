#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace tpuperf::nn {
namespace {

// Loop-invariant scalars of one Adam step.
struct AdamStepConstants {
  double scale;  // gradient clipping factor (1 when not clipping)
  double beta1, beta2;
  double one_minus_beta1, one_minus_beta2;
  double bc1, bc2;  // bias corrections 1 - beta^t
  double learning_rate;
  double epsilon;
};

// The per-element update, in double, with one rounding per operation:
//   g     = grad * scale
//   m_new = fma(beta1, m, (1 - beta1) * g)
//   v_new = fma(beta2, v, ((1 - beta2) * g) * g)
//   value -= float((lr * (m_new / bc1)) / (sqrt(v_new / bc2) + eps))
// with m and v stored back as floats. The two FMAs are where an FMA target
// contracts the scalar expressions `beta1 * m + (1 - beta1) * g` and
// `beta2 * v + (1 - beta2) * g * g`; a target without FMA rounds the
// products, and the portable loop below then computes exactly that. Each
// grad is zeroed once it has been read.
#if defined(__AVX__) && defined(__FMA__)

// Four elements at a time: packed double divides and square roots (the
// scalar loop cannot be vectorized by the compiler — std::sqrt's errno
// branch blocks it), the same operations in the same order per lane.
inline void UpdateLanes(const AdamStepConstants& k, float* value, float* grad,
                        float* m, float* v) {
  const __m256d g = _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(grad)),
                                  _mm256_set1_pd(k.scale));
  const __m256d m_new = _mm256_fmadd_pd(
      _mm256_set1_pd(k.beta1), _mm256_cvtps_pd(_mm_loadu_ps(m)),
      _mm256_mul_pd(_mm256_set1_pd(k.one_minus_beta1), g));
  const __m256d v_new = _mm256_fmadd_pd(
      _mm256_set1_pd(k.beta2), _mm256_cvtps_pd(_mm_loadu_ps(v)),
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(k.one_minus_beta2), g), g));
  _mm_storeu_ps(m, _mm256_cvtpd_ps(m_new));
  _mm_storeu_ps(v, _mm256_cvtpd_ps(v_new));
  const __m256d m_hat = _mm256_div_pd(m_new, _mm256_set1_pd(k.bc1));
  const __m256d v_hat = _mm256_div_pd(v_new, _mm256_set1_pd(k.bc2));
  const __m256d step = _mm256_div_pd(
      _mm256_mul_pd(_mm256_set1_pd(k.learning_rate), m_hat),
      _mm256_add_pd(_mm256_sqrt_pd(v_hat), _mm256_set1_pd(k.epsilon)));
  _mm_storeu_ps(value,
                _mm_sub_ps(_mm_loadu_ps(value), _mm256_cvtpd_ps(step)));
  _mm_storeu_ps(grad, _mm_setzero_ps());
}

void UpdateParameter(const AdamStepConstants& k, Parameter& p) {
  constexpr size_t kLanes = 4;
  const size_t n = p.value.size();
  float* value = p.value.data();
  float* grad = p.grad.data();
  float* m = p.adam_m.data();
  float* v = p.adam_v.data();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    UpdateLanes(k, value + i, grad + i, m + i, v + i);
  }
  if (i == n) return;
  // The tail runs the same lanes over zero-padded copies.
  const size_t tail = n - i;
  float tv[kLanes] = {}, tg[kLanes] = {}, tm[kLanes] = {}, tw[kLanes] = {};
  std::copy_n(value + i, tail, tv);
  std::copy_n(grad + i, tail, tg);
  std::copy_n(m + i, tail, tm);
  std::copy_n(v + i, tail, tw);
  UpdateLanes(k, tv, tg, tm, tw);
  std::copy_n(tv, tail, value + i);
  std::copy_n(tg, tail, grad + i);
  std::copy_n(tm, tail, m + i);
  std::copy_n(tw, tail, v + i);
}

#else  // portable fallback

void UpdateParameter(const AdamStepConstants& k, Parameter& p) {
  const size_t n = p.value.size();
  float* value = p.value.data();
  float* grad = p.grad.data();
  float* m = p.adam_m.data();
  float* v = p.adam_v.data();
  for (size_t i = 0; i < n; ++i) {
    const double g = static_cast<double>(grad[i]) * k.scale;
    const double m_new = k.beta1 * m[i] + k.one_minus_beta1 * g;
    const double v_new = k.beta2 * v[i] + k.one_minus_beta2 * g * g;
    m[i] = static_cast<float>(m_new);
    v[i] = static_cast<float>(v_new);
    const double m_hat = m_new / k.bc1;
    const double v_hat = v_new / k.bc2;
    value[i] -= static_cast<float>(k.learning_rate * m_hat /
                                   (std::sqrt(v_hat) + k.epsilon));
    grad[i] = 0.0f;
  }
}

#endif

}  // namespace

void Adam::Step(std::span<Parameter* const> params) {
  ++step_;

  double norm_sq = 0;
  for (const Parameter* p : params) {
    for (const float g : p->grad.flat()) {
      norm_sq += static_cast<double>(g) * g;
    }
  }
  last_grad_norm_ = std::sqrt(norm_sq);

  double scale = 1.0;
  if (config_.clip == GradClip::kNorm && last_grad_norm_ > config_.clip_norm &&
      last_grad_norm_ > 0) {
    scale = config_.clip_norm / last_grad_norm_;
  }

  const AdamStepConstants k{
      .scale = scale,
      .beta1 = config_.beta1,
      .beta2 = config_.beta2,
      .one_minus_beta1 = 1.0 - config_.beta1,
      .one_minus_beta2 = 1.0 - config_.beta2,
      .bc1 = 1.0 - std::pow(config_.beta1, step_),
      .bc2 = 1.0 - std::pow(config_.beta2, step_),
      .learning_rate = config_.learning_rate,
      .epsilon = config_.epsilon,
  };
  for (Parameter* p : params) {
    if (p->adam_m.empty()) {
      p->adam_m = Matrix(p->value.rows(), p->value.cols());
      p->adam_v = Matrix(p->value.rows(), p->value.cols());
    }
    UpdateParameter(k, *p);
  }
}

}  // namespace tpuperf::nn
