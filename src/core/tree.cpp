#include "core/tree.h"

#include <algorithm>
#include <cmath>

namespace gbmo::core {

std::int32_t Tree::add_root(std::uint32_t n_instances) {
  GBMO_CHECK(nodes_.empty()) << "root already exists";
  TreeNode root;
  root.n_instances = n_instances;
  nodes_.push_back(root);
  return 0;
}

std::pair<std::int32_t, std::int32_t> Tree::split_node(
    std::int32_t node_id, std::int32_t feature, std::int32_t split_bin,
    float threshold, float gain, std::uint32_t n_left, std::uint32_t n_right,
    int depth_of_children) {
  GBMO_CHECK(node_id >= 0 && static_cast<std::size_t>(node_id) < nodes_.size());
  GBMO_CHECK(feature >= 0);

  const std::int32_t left = static_cast<std::int32_t>(nodes_.size());
  const std::int32_t right = left + 1;
  TreeNode l, r;
  l.n_instances = n_left;
  r.n_instances = n_right;
  nodes_.push_back(l);
  nodes_.push_back(r);

  TreeNode& n = nodes_[static_cast<std::size_t>(node_id)];
  n.feature = feature;
  n.split_bin = split_bin;
  n.threshold = threshold;
  n.gain = gain;
  n.left = left;
  n.right = right;
  max_depth_ = std::max(max_depth_, depth_of_children);
  return {left, right};
}

void Tree::set_leaf(std::int32_t node_id, std::span<const float> values) {
  GBMO_CHECK(node_id >= 0 && static_cast<std::size_t>(node_id) < nodes_.size());
  GBMO_CHECK(values.size() == static_cast<std::size_t>(n_outputs_));
  TreeNode& n = nodes_[static_cast<std::size_t>(node_id)];
  GBMO_CHECK(n.is_leaf()) << "cannot turn an internal node into a leaf";
  GBMO_CHECK(n.leaf_offset < 0) << "leaf already finalized";
  n.leaf_offset = static_cast<std::int32_t>(leaf_values_.size());
  leaf_values_.insert(leaf_values_.end(), values.begin(), values.end());
  ++n_leaves_;
}

std::int32_t Tree::find_leaf(std::span<const float> x_row) const {
  GBMO_CHECK(!nodes_.empty());
  std::int32_t id = 0;
  while (!nodes_[static_cast<std::size_t>(id)].is_leaf()) {
    const auto& n = nodes_[static_cast<std::size_t>(id)];
    const float v = x_row[static_cast<std::size_t>(n.feature)];
    // NaN must follow the node's default direction; `v <= threshold` alone
    // would send it right, diverging from the binned training partition.
    const bool go_left = std::isnan(v) ? n.default_left : v <= n.threshold;
    id = go_left ? n.left : n.right;
  }
  return id;
}

void Tree::set_raw(std::vector<TreeNode> nodes, std::vector<float> leaf_values,
                   int n_outputs) {
  nodes_ = std::move(nodes);
  leaf_values_ = std::move(leaf_values);
  n_outputs_ = n_outputs;
  n_leaves_ = 0;
  for (const auto& n : nodes_) {
    if (n.is_leaf()) {
      GBMO_CHECK(n.leaf_offset >= 0 &&
                 static_cast<std::size_t>(n.leaf_offset) + n_outputs_ <=
                     leaf_values_.size());
      ++n_leaves_;
    }
  }
  // Recompute the depth (construction tracks it; raw loads must rebuild it).
  // The walk visits each node at most once, so a child id out of range or
  // pointing back at a reached node fails instead of looping or reading past
  // the node array.
  max_depth_ = 0;
  if (!nodes_.empty()) {
    std::vector<bool> reached(nodes_.size(), false);
    std::vector<std::pair<std::int32_t, int>> stack = {{0, 0}};
    while (!stack.empty()) {
      const auto [id, depth] = stack.back();
      stack.pop_back();
      GBMO_CHECK(id >= 0 && static_cast<std::size_t>(id) < nodes_.size())
          << "child id " << id << " out of range for " << nodes_.size()
          << " nodes";
      GBMO_CHECK(!reached[static_cast<std::size_t>(id)])
          << "node " << id << " is reached twice";
      reached[static_cast<std::size_t>(id)] = true;
      max_depth_ = std::max(max_depth_, depth);
      const auto& n = nodes_[static_cast<std::size_t>(id)];
      if (!n.is_leaf()) {
        stack.push_back({n.left, depth + 1});
        stack.push_back({n.right, depth + 1});
      }
    }
  }
}

}  // namespace gbmo::core
