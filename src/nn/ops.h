// Differentiable operations on Tape tensors.
//
// Each op computes the forward value eagerly and records a closure that
// pushes d(out) into d(inputs). Every op here is covered by a numerical
// gradient check in tests/nn_grad_test.cpp.
//
// Backward closures write gradients through the accumulate GEMM kernels
// without materializing per-op temporaries, and elementwise backwards read
// their operands from the tape nodes instead of captured copies. State a
// backward needs beyond its operands (dropout masks, layer-norm xhat, LSTM
// gates, attention probabilities) is stashed on the tape as arena-recycled
// leaves.
#pragma once

#include <random>
#include <span>
#include <vector>

#include "nn/tape.h"

namespace tpuperf::nn {

// y = a @ b.
Tensor MatMulOp(Tape& tape, Tensor a, Tensor b);
// y = A @ x where A is a constant (e.g. a normalized adjacency matrix).
Tensor MatMulConstA(Tape& tape, const Matrix& a, Tensor x);

Tensor AddOp(Tape& tape, Tensor a, Tensor b);
Tensor SubOp(Tape& tape, Tensor a, Tensor b);
Tensor MulOp(Tape& tape, Tensor a, Tensor b);  // elementwise
Tensor ScaleOp(Tape& tape, Tensor a, float s);
Tensor AddScalarOp(Tape& tape, Tensor a, float s);
// y[i, :] = x[i, :] + bias[0, :]; bias is [1, c].
Tensor AddRowBroadcastOp(Tape& tape, Tensor x, Tensor bias);

Tensor ReluOp(Tape& tape, Tensor x);
Tensor LeakyReluOp(Tape& tape, Tensor x, float alpha);
Tensor TanhOp(Tape& tape, Tensor x);
Tensor SigmoidOp(Tape& tape, Tensor x);
Tensor ExpOp(Tape& tape, Tensor x);
// log(x + eps), guarded for non-negative inputs.
Tensor LogOp(Tape& tape, Tensor x, float eps = 1e-12f);

// Inverted dropout; identity when rate <= 0.
Tensor DropoutOp(Tape& tape, Tensor x, float rate, std::mt19937_64& rng);

// Rows scaled to unit L2 norm (GraphSAGE's l2 normalization).
Tensor RowL2NormalizeOp(Tape& tape, Tensor x, float eps = 1e-6f);
// Per-row layer normalization with learned gain/bias ([1, c] each).
Tensor LayerNormRowsOp(Tape& tape, Tensor x, Tensor gamma, Tensor beta,
                       float eps = 1e-5f);

// Row-wise softmax. With `mask` (same shape, entries 0/1), masked-out
// entries get probability 0; fully-masked rows become all-zero.
Tensor SoftmaxRowsOp(Tape& tape, Tensor x);
Tensor MaskedSoftmaxRowsOp(Tape& tape, Tensor x, const Matrix& mask);

Tensor ConcatColsOp(Tape& tape, std::span<const Tensor> parts);
Tensor ConcatRowsOp(Tape& tape, std::span<const Tensor> parts);
// y = x[row, :] as a [1, c] tensor.
Tensor SliceRowOp(Tape& tape, Tensor x, int row);
// y = x[begin:begin+rows, :] as a [rows, c] tensor.
Tensor SliceRowsOp(Tape& tape, Tensor x, int begin, int rows);
// y = x[:, begin:begin+cols] as a [r, cols] tensor.
Tensor SliceColsOp(Tape& tape, Tensor x, int begin, int cols);

// Fused LSTM gate pre-activation for one lockstep time step:
//   y[r, :] = x_rows[ids[r], :] + h[r, :] @ w + bias[0, :]
// where x_rows is the input-side gate projection precomputed for ALL nodes
// in one large GEMM (hoisted out of the time loop), ids selects the active
// row per segment, and w is the recurrent weight block [hidden, 4h].
// `w_t` is w transposed ([4h, hidden]), which the backward's dh GEMM
// accumulates against (MatMulAccum), so a caller running many steps on one
// weight transposes it once per pass instead of once per step. It must be
// non-null when the tape records gradients and is ignored otherwise; the
// caller keeps it alive until backward has run.
Tensor LstmGatePreactOp(Tape& tape, Tensor x_rows, std::span<const int> ids,
                        Tensor h, Tensor w, const Matrix* w_t, Tensor bias);

// Fused LSTM cell: given the pre-activation `preact` = [i | f | g | o]
// ([B, 4h], gate order input/forget/cell/output) and the previous cell
// state c_prev ([B, h]), computes
//   c = sigmoid(f) * c_prev + sigmoid(i) * tanh(g)
//   h = sigmoid(o) * tanh(c)
// and returns [h | c] as one [B, 2h] tensor. One tape node instead of the
// ~10 elementwise ops of the unfused cell; the arithmetic is identical.
Tensor LstmCellOp(Tape& tape, Tensor preact, Tensor c_prev);

// Column-wise reductions: [n, c] -> [1, c].
Tensor ColSumOp(Tape& tape, Tensor x);
Tensor ColMeanOp(Tape& tape, Tensor x);
Tensor ColMaxOp(Tape& tape, Tensor x);

// ---- Segment ops (batched inference over packed graphs) --------------------
// `offsets` has B+1 monotone entries with offsets[0] == 0 and
// offsets[B] == x.rows(); segment b is rows [offsets[b], offsets[b+1]).
// Each op reduces [n, c] -> [B, c], with row b equal to the corresponding
// column-wise reduction over segment b (same accumulation order, so batched
// and per-kernel results agree exactly).
Tensor SegmentSumOp(Tape& tape, Tensor x, std::span<const int> offsets);
Tensor SegmentMeanOp(Tape& tape, Tensor x, std::span<const int> offsets);
Tensor SegmentMaxOp(Tape& tape, Tensor x, std::span<const int> offsets);

// y = blockdiag(blocks[0], ..., blocks[B-1]) @ x, applied block-sparsely:
// rows [offsets[b], offsets[b+1]) of y are blocks[b] @ (same rows of x).
// Cost is O(sum n_b^2 c), not O((sum n_b)^2 c) — the packed batch pays the
// same adjacency flops as B separate kernels. `blocks` must outlive the tape.
Tensor BlockDiagMatMulConstA(Tape& tape,
                             std::span<const Matrix* const> blocks,
                             std::span<const int> offsets, Tensor x);

// ---- Fused block-diagonal masked attention ---------------------------------
// Both ops pack every attention segment of a batch into ONE differentiable
// tape node whose forward and backward both shard segments across
// core::ThreadPool (each segment touches a disjoint row range of every
// operand's grad, so the partitioning is bit-identical at any pool width).
// tests/nn_grad_test.cpp checks each against the per-segment op chain it
// packs (MatMul/Softmax/MatMul, OuterSum/LeakyRelu/MaskedSoftmax/MatMul).
// Attention
// probabilities are saved on the tape itself (an arena-recycled stash leaf),
// not in closure captures.

// Scaled-dot-product self-attention per segment (the Transformer reduction):
//   y[seg b] = Softmax(scale * q_b @ k_b^T) @ v_b
// q, k are [N, d]; v is [N, dv]; segments follow `offsets` (B+1 entries).
// Performs the same float sequence as MatMul/Softmax/MatMul per segment
// (outputs agree to FP-contraction differences, ~1 ulp).
Tensor BlockDiagSelfAttentionOp(Tape& tape, Tensor q, Tensor k, Tensor v,
                                std::span<const int> offsets, float scale);

// Additive (GAT) attention per segment with a LeakyReLU logit and an edge
// mask:
//   y[seg b] = MaskedSoftmax(LeakyReLU(s_b (+) d_b^T, alpha), masks[b]) @ wh_b
// s, d are [N, 1] logit halves (a_src . Wh, a_dst . Wh); wh is [N, d];
// masks[b] is the [len_b, len_b] 0/1 edge mask of segment b and must outlive
// the tape (like BlockDiagMatMulConstA's blocks). Performs the same float
// sequence as OuterSum/LeakyRelu/MaskedSoftmax/MatMul per segment (outputs
// agree to FP-contraction differences, ~1 ulp).
Tensor BlockDiagGatAttentionOp(Tape& tape, Tensor s, Tensor d, Tensor wh,
                               std::span<const Matrix* const> masks,
                               std::span<const int> offsets, float alpha);

// Whole-matrix reductions to [1, 1].
Tensor SumAllOp(Tape& tape, Tensor x);
Tensor MeanAllOp(Tape& tape, Tensor x);

// y[i, :] = table[ids[i], :]; backward scatter-adds into table rows.
Tensor GatherRowsOp(Tape& tape, Tensor table, std::span<const int> ids);

// y[i, j] = a[i, 0] + b[j, 0] for column vectors a, b (GAT attention logits).
Tensor OuterSumOp(Tape& tape, Tensor a, Tensor b);

Tensor TransposeOp(Tape& tape, Tensor x);

}  // namespace tpuperf::nn
