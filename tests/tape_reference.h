// Tape-forward references for the inference exactness tests and
// bench_micro's plan report.
//
// Every LearnedCostModel::Predict* entry point replays a compiled plan, so a
// test that checks plan replay against "the tape" must build the tape
// itself: ForwardBatch on a grad-disabled tape, at the model's inference
// precision (as the fallback inside PredictBatch runs it). A single kernel
// is scored as a one-item batch, as PredictScore's fallback does.
#pragma once

#include <vector>

#include "core/cost_model.h"
#include "nn/quant.h"
#include "nn/tape.h"

namespace tpuperf::testing_util {

inline std::vector<double> TapeBatch(core::LearnedCostModel& model,
                                     const core::PreparedBatch& batch) {
  const nn::ScopedPrecision scoped(model.precision());
  nn::Tape tape(/*grad_enabled=*/false);
  const nn::Tensor out = model.ForwardBatch(tape, batch, /*training=*/false);
  std::vector<double> scores(static_cast<size_t>(out.rows()));
  for (int b = 0; b < out.rows(); ++b) {
    scores[static_cast<size_t>(b)] = out.value().at(b, 0);
  }
  return scores;
}

inline double TapeScore(core::LearnedCostModel& model,
                        const core::PreparedKernel& kernel,
                        const ir::TileConfig* tile) {
  const core::BatchItem item[] = {{&kernel, tile}};
  return TapeBatch(model, model.PrepareBatch(item)).front();
}

}  // namespace tpuperf::testing_util
