#include "tree/embedding_builder.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace mpte {

Hst assemble_tree(std::vector<TreeEdge> edges, std::vector<TreeLeaf> leaves,
                  std::uint64_t root_id, std::size_t num_points,
                  std::span<const double> edge_weight) {
  if (num_points == 0) throw MpteError("assemble_tree: no points");
  constexpr auto kNone = std::numeric_limits<std::uint32_t>::max();

  // Edges by (parent, child), repeats dropped: the children of an id are
  // one contiguous run, in the ascending order the BFS appends them.
  std::sort(edges.begin(), edges.end(),
            [](const TreeEdge& a, const TreeEdge& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.child < b.child;
            });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // Node indexes are 32-bit (HstNode::parent is an int32_t).
  if (edges.size() >= std::numeric_limits<std::int32_t>::max()) {
    throw MpteError("assemble_tree: too many tree edges");
  }
  const auto m = static_cast<std::uint32_t>(edges.size());

  // BFS from the root. Node i carries slot_of[i]'s id (slot e < m is edge
  // e's child, slot m the root) and sits under node parent_of[i]; the
  // order is topological and level-major. bottom[p] is point p's node.
  std::vector<std::uint32_t> slot_of{m};
  std::vector<std::uint32_t> parent_of{kNone};
  std::vector<std::uint32_t> bottom(num_points, 0);
  {
    // Every slot by (id, slot), joined with the edges: [begin, end) of a
    // slot are the edges whose parent is that slot's id.
    struct Slot {
      std::uint64_t id;
      std::uint32_t slot;
    };
    std::vector<Slot> by_id(std::size_t{m} + 1);
    for (std::uint32_t e = 0; e < m; ++e) by_id[e] = Slot{edges[e].child, e};
    by_id[m] = Slot{root_id, m};
    std::sort(by_id.begin(), by_id.end(), [](const Slot& a, const Slot& b) {
      return a.id != b.id ? a.id < b.id : a.slot < b.slot;
    });
    std::vector<std::uint32_t> begin(by_id.size()), end(by_id.size());
    for (std::uint32_t e = 0; const Slot& s : by_id) {
      while (e < m && edges[e].parent < s.id) ++e;
      std::uint32_t f = e;
      while (f < m && edges[f].parent == s.id) ++f;
      begin[s.slot] = e;
      end[s.slot] = f;
    }

    slot_of.reserve(by_id.size());
    parent_of.reserve(by_id.size());
    // `level` is head's level: it steps up as head passes the last node
    // of the level before.
    for (std::size_t head = 0, level = 0, level_end = 1;
         head < slot_of.size(); ++head) {
      if (head == level_end) {
        ++level;
        level_end = slot_of.size();
      }
      const std::uint32_t slot = slot_of[head];
      if (begin[slot] == end[slot]) continue;
      // Also what stops a cycle of ids.
      if (level + 1 >= edge_weight.size()) {
        throw MpteError("assemble_tree: a path runs deeper than the " +
                        std::to_string(edge_weight.size()) + "-level ladder");
      }
      for (std::uint32_t c = begin[slot]; c < end[slot]; ++c) {
        slot_of.push_back(c);
        parent_of.push_back(static_cast<std::uint32_t>(head));
      }
      if (slot_of.size() > std::numeric_limits<std::int32_t>::max()) {
        throw MpteError("assemble_tree: too many tree nodes");
      }
    }

    // The leaf records, sorted by id, join the slots: a point goes to the
    // first BFS occurrence of its id, over every slot carrying it.
    std::vector<std::uint32_t> first(by_id.size(), kNone);
    for (std::size_t i = slot_of.size(); i-- > 0;) {
      first[slot_of[i]] = static_cast<std::uint32_t>(i);
    }
    std::sort(leaves.begin(), leaves.end(),
              [](const TreeLeaf& a, const TreeLeaf& b) {
                return a.id != b.id ? a.id < b.id : a.point < b.point;
              });
    for (std::size_t l = 0, s = 0; l < leaves.size();) {
      const std::uint64_t id = leaves[l].id;
      while (s < by_id.size() && by_id[s].id < id) ++s;
      std::uint32_t node = kNone;
      for (std::size_t t = s; t < by_id.size() && by_id[t].id == id; ++t) {
        node = std::min(node, first[by_id[t].slot]);
      }
      for (; l < leaves.size() && leaves[l].id == id; ++l) {
        if (node == kNone || leaves[l].point >= num_points) {
          throw MpteError("assemble_tree: leaf record (point " +
                          std::to_string(leaves[l].point) + ", node " +
                          std::to_string(id) +
                          ") names no node of the assembled tree");
        }
        bottom[leaves[l].point] = node;
      }
    }
  }
  const std::size_t raw_count = slot_of.size();

  // Points per node, bottom-up. A node survives the pruning iff it holds a
  // point and its parent holds two (the root always): then it is some
  // point's topmost single-point ancestor or one of its ancestors, and its
  // point count is the size of its pruned subtree.
  std::vector<std::uint32_t> count(raw_count, 0);
  for (const std::uint32_t b : bottom) ++count[b];
  for (std::size_t i = raw_count; i-- > 1;) count[parent_of[i]] += count[i];
  const auto kept = [&](std::size_t i) {
    return count[i] > 0 && (i == 0 || count[parent_of[i]] >= 2);
  };
  // Exact capacity: the Hst keeps this vector for its lifetime.
  std::size_t kept_count = 0;
  for (std::size_t i = 0; i < raw_count; ++i) kept_count += kept(i) ? 1 : 0;
  std::vector<HstNode> nodes;
  nodes.reserve(kept_count + num_points);
  std::vector<std::uint32_t> index(raw_count, kNone);
  for (std::size_t i = 0; i < raw_count; ++i) {
    if (!kept(i)) continue;
    HstNode node;
    node.cluster_id = slot_of[i] < m ? edges[slot_of[i]].child : root_id;
    node.subtree_size = count[i];
    if (i > 0) {
      node.parent = static_cast<std::int32_t>(index[parent_of[i]]);
      node.level = nodes[static_cast<std::size_t>(node.parent)].level + 1;
      node.edge_weight = edge_weight[node.level];
    }
    index[i] = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(node);
  }

  // Leaves, one per point, weight 0, under the deepest kept node on the
  // point's path.
  std::vector<std::uint32_t> leaf_of_point(num_points);
  for (std::size_t p = 0; p < num_points; ++p) {
    std::uint32_t cur = bottom[p];
    while (index[cur] == kNone) cur = parent_of[cur];
    const std::uint32_t parent = index[cur];
    HstNode leaf;
    leaf.cluster_id = nodes[parent].cluster_id;
    leaf.parent = static_cast<std::int32_t>(parent);
    leaf.level = nodes[parent].level + 1;
    leaf.point = static_cast<std::int64_t>(p);
    leaf.subtree_size = 1;
    leaf_of_point[p] = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(leaf);
  }
  return Hst(std::move(nodes), std::move(leaf_of_point));
}

Hst build_hst(const Hierarchy& hierarchy) {
  const std::size_t n = hierarchy.num_points();
  if (n == 0) throw MpteError("build_hst: empty hierarchy");
  const auto& ids = hierarchy.cluster_of_point;
  std::vector<TreeEdge> edges;
  edges.reserve(n * (ids.size() - 1));
  for (std::size_t level = 1; level < ids.size(); ++level) {
    for (std::size_t i = 0; i < n; ++i) {
      edges.push_back(TreeEdge{ids[level][i], ids[level - 1][i]});
    }
  }
  std::vector<TreeLeaf> leaves(n);
  for (std::size_t i = 0; i < n; ++i) leaves[i] = TreeLeaf{i, ids.back()[i]};
  return assemble_tree(std::move(edges), std::move(leaves), ids[0][0], n,
                       hierarchy.edge_weight);
}

HstShape hst_shape(const Hst& tree) {
  HstShape shape;
  shape.nodes = tree.num_nodes();
  shape.depth = tree.depth();
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    if (tree.node(i).point >= 0) {
      ++shape.leaves;
    } else {
      ++shape.internal_nodes;
    }
    shape.max_branching =
        std::max(shape.max_branching, tree.children(i).size());
  }
  return shape;
}

}  // namespace mpte
