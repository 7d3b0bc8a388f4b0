// Numerical parameter-gradient check shared by the op/module tests
// (nn_grad_test) and the whole-model tests (batch_test).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "nn/parameters.h"
#include "nn/tape.h"

namespace tpuperf::testing_util {

// Checks the analytic gradient of `forward_loss` with respect to the first
// few entries of every parameter in `store` against central differences.
// `forward_loss` builds the loss on the tape it is given, runs Backward
// itself when that tape records gradients, and returns the loss value.
// Each entry must agree to `tolerance` relative to the larger of the two
// gradients, or absolutely to `tolerance * floor` below `floor`.
inline void CheckParamGradients(
    nn::ParamStore& store, const std::function<double(nn::Tape&)>& forward_loss,
    float tolerance = 3e-2f, float h = 1e-3f, double floor = 1.0) {
  store.ZeroGrad();
  {
    nn::Tape tape(/*grad_enabled=*/true);
    forward_loss(tape);
  }
  for (nn::Parameter* p : store.params()) {
    for (size_t i = 0; i < std::min<size_t>(p->value.size(), 4); ++i) {
      const float original = p->value.data()[i];
      p->value.data()[i] = original + h;
      nn::Tape tp(/*grad_enabled=*/false);
      const double plus = forward_loss(tp);
      p->value.data()[i] = original - h;
      nn::Tape tm(/*grad_enabled=*/false);
      const double minus = forward_loss(tm);
      p->value.data()[i] = original;
      const double numeric = (plus - minus) / (2.0 * h);
      const double got = p->grad.data()[i];
      const double denom =
          std::max({floor, std::abs(numeric), std::abs(got)});
      EXPECT_NEAR(got / denom, numeric / denom, tolerance)
          << p->name << " entry " << i;
    }
  }
}

}  // namespace tpuperf::testing_util
