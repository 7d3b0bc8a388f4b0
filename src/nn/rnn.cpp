#include "nn/rnn.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace tpuperf::nn {

Lstm::Lstm(ParamStore& store, const std::string& name, int in_features,
           int hidden, std::mt19937_64& rng)
    : hidden_(hidden) {
  const int z = in_features + hidden;
  input_gate_ = Linear(store, name + ".wi", z, hidden, rng, /*bias=*/true);
  forget_gate_ = Linear(store, name + ".wf", z, hidden, rng, /*bias=*/true);
  cell_gate_ = Linear(store, name + ".wg", z, hidden, rng, /*bias=*/true);
  output_gate_ = Linear(store, name + ".wo", z, hidden, rng, /*bias=*/true);
}

Lstm::Output Lstm::Forward(Tape& tape, Tensor x) const {
  if (hidden_ == 0) throw std::logic_error("Lstm: uninitialized");
  const int seq_len = x.rows();
  Tensor h = tape.Leaf(Matrix(1, hidden_));
  Tensor c = tape.Leaf(Matrix(1, hidden_));
  std::vector<Tensor> states;
  states.reserve(static_cast<size_t>(seq_len));
  for (int t = 0; t < seq_len; ++t) {
    Tensor xt = SliceRowOp(tape, x, t);
    const Tensor zh[] = {xt, h};
    Tensor z = ConcatColsOp(tape, zh);
    Tensor i = SigmoidOp(tape, input_gate_.Forward(tape, z));
    Tensor f = SigmoidOp(tape, forget_gate_.Forward(tape, z));
    Tensor g = TanhOp(tape, cell_gate_.Forward(tape, z));
    Tensor o = SigmoidOp(tape, output_gate_.Forward(tape, z));
    c = AddOp(tape, MulOp(tape, f, c), MulOp(tape, i, g));
    h = MulOp(tape, o, TanhOp(tape, c));
    states.push_back(h);
  }
  Output out;
  out.final_hidden = h;
  out.all_hidden = ConcatRowsOp(tape, states);
  return out;
}

Tensor Lstm::ForwardBatched(Tape& tape, Tensor x,
                            std::span<const int> offsets) const {
  if (hidden_ == 0) throw std::logic_error("Lstm: uninitialized");
  if (offsets.size() < 2 || offsets.front() != 0 ||
      offsets.back() != x.rows()) {
    throw std::invalid_argument("Lstm::ForwardBatched: bad offsets");
  }
  const int batch = static_cast<int>(offsets.size()) - 1;
  std::vector<int> length(static_cast<size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    length[static_cast<size_t>(b)] = offsets[static_cast<size_t>(b) + 1] -
                                     offsets[static_cast<size_t>(b)];
    if (length[static_cast<size_t>(b)] <= 0) {
      throw std::invalid_argument("Lstm::ForwardBatched: empty segment");
    }
  }

  // Process segments sorted by descending length so the active set at any
  // step is a row prefix of the state matrices; rows of finished segments
  // are peeled off the bottom.
  std::vector<int> order(static_cast<size_t>(batch));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return length[static_cast<size_t>(a)] > length[static_cast<size_t>(b)];
  });
  const int max_len = length[static_cast<size_t>(order.front())];

  // Fuse the four gate transforms into one [in+hidden, 4*hidden] GEMM per
  // step: the weight (and bias) concatenation happens once per call, and
  // each concatenated column block reproduces its per-gate GEMM exactly.
  const Tensor weights[] = {tape.ParamLeaf(*input_gate_.weight_param()),
                            tape.ParamLeaf(*forget_gate_.weight_param()),
                            tape.ParamLeaf(*cell_gate_.weight_param()),
                            tape.ParamLeaf(*output_gate_.weight_param())};
  const Tensor biases[] = {tape.ParamLeaf(*input_gate_.bias_param()),
                           tape.ParamLeaf(*forget_gate_.bias_param()),
                           tape.ParamLeaf(*cell_gate_.bias_param()),
                           tape.ParamLeaf(*output_gate_.bias_param())};
  Tensor w_all = ConcatColsOp(tape, weights);  // [in+hidden, 4h]
  Tensor b_all = ConcatColsOp(tape, biases);   // [1, 4h]
  const int in_features = w_all.rows() - hidden_;
  // Input-side and recurrent weight blocks of the fused gate matrix.
  Tensor w_x = SliceRowsOp(tape, w_all, 0, in_features);
  Tensor w_h = SliceRowsOp(tape, w_all, in_features, hidden_);
  // The recurrent block transposed once for the backward's dh GEMMs of
  // every step (a stash leaf: no gradient flows through it).
  const Matrix* w_h_t = nullptr;
  if (tape.grad_enabled()) {
    const Matrix& wv = w_h.value();
    Matrix t = tape.NewMatrixUninit(wv.cols(), wv.rows());
    for (int i = 0; i < wv.rows(); ++i) {
      for (int j = 0; j < wv.cols(); ++j) t.at(j, i) = wv.at(i, j);
    }
    w_h_t = &tape.Leaf(std::move(t)).value();
  }
  // The input-side projection of EVERY node, in one large GEMM hoisted out
  // of the time loop; each step just gathers its active rows.
  Tensor xw = MatMulOp(tape, x, w_x);  // [total_nodes, 4h]

  Tensor h = tape.Leaf(Matrix(batch, hidden_));
  Tensor c = tape.Leaf(Matrix(batch, hidden_));
  int active = batch;
  // Final hidden chunks in the order segments finish, plus their segment ids.
  std::vector<Tensor> final_chunks;
  std::vector<int> finish_order;
  finish_order.reserve(static_cast<size_t>(batch));

  for (int t = 0; t < max_len; ++t) {
    // Peel off segments whose sequence ended at step t.
    int still_active = active;
    while (still_active > 0 &&
           length[static_cast<size_t>(order[static_cast<size_t>(
               still_active - 1)])] <= t) {
      --still_active;
    }
    if (still_active < active) {
      final_chunks.push_back(
          SliceRowsOp(tape, h, still_active, active - still_active));
      for (int k = still_active; k < active; ++k) {
        finish_order.push_back(order[static_cast<size_t>(k)]);
      }
      h = SliceRowsOp(tape, h, 0, still_active);
      c = SliceRowsOp(tape, c, 0, still_active);
      active = still_active;
    }
    // Row t of every active segment, gathered into one [active, in] matrix.
    std::vector<int> ids(static_cast<size_t>(active));
    for (int k = 0; k < active; ++k) {
      ids[static_cast<size_t>(k)] =
          offsets[static_cast<size_t>(order[static_cast<size_t>(k)])] + t;
    }
    Tensor preact = LstmGatePreactOp(tape, xw, ids, h, w_h, w_h_t, b_all);
    Tensor hc = LstmCellOp(tape, preact, c);  // [active, 2h] = [h | c]
    h = SliceColsOp(tape, hc, 0, hidden_);
    c = SliceColsOp(tape, hc, hidden_, hidden_);
  }
  final_chunks.push_back(h);
  for (int k = 0; k < active; ++k) {
    finish_order.push_back(order[static_cast<size_t>(k)]);
  }

  // Restore segment order: position of segment b in the stacked chunks.
  Tensor stacked = final_chunks.size() == 1
                       ? final_chunks.front()
                       : ConcatRowsOp(tape, final_chunks);
  std::vector<int> position(static_cast<size_t>(batch));
  for (int p = 0; p < batch; ++p) {
    position[static_cast<size_t>(finish_order[static_cast<size_t>(p)])] = p;
  }
  return GatherRowsOp(tape, stacked, position);
}

}  // namespace tpuperf::nn
