// Inference kernels (§3.4.2) and the incremental score update (§3.1.1).
//
// Training never re-traverses trees: the grower records which leaf every
// training row landed in, so updating ŷ is a gather of leaf vectors plus a
// d-wide axpy. Standalone inference traverses the trees instance-parallel
// (one thread per instance, trees in sequence); the compiled engine
// (core/compiled_model.h) is the fast inference path.
#pragma once

#include <span>
#include <vector>

#include "core/tree.h"
#include "data/matrix.h"
#include "sim/device.h"

namespace gbmo::core {

// Adds tree(x_i) to scores ([i * d + k] layout) for every instance, using
// the training-time leaf assignment. With apply=false only the cost is
// charged — used when the same (replicated) kernel runs on several devices
// but the host-side score array must be updated exactly once.
void update_scores_from_leaves(sim::Device& dev, const Tree& tree,
                               std::span<const std::int32_t> leaf_of_row,
                               std::span<float> scores, bool apply = true);

// Full-model inference over raw feature values.
void predict_scores_device(sim::Device& dev, std::span<const Tree> trees,
                           const data::DenseMatrix& x, std::span<float> scores);

// Host-side scoring with no device accounting: the scalar reference behind
// Model::predict and the booster's validation scores.
std::vector<float> predict_scores(std::span<const Tree> trees,
                                  const data::DenseMatrix& x, int n_outputs);

}  // namespace gbmo::core
