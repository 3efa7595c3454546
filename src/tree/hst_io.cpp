#include "tree/hst_io.hpp"

#include <utility>

namespace mpte {
namespace {

constexpr std::uint32_t kMagic = 0x4d505445;  // "MPTE"
constexpr std::uint32_t kVersion = 1;

/// Flat, trivially copyable on-disk form of HstNode.
struct WireNode {
  std::uint64_t cluster_id;
  std::int64_t point;
  std::int32_t parent;
  std::uint32_t level;
  double edge_weight;
  std::uint32_t subtree_size;
  std::uint32_t padding = 0;
};

}  // namespace

void serialize_hst(const Hst& tree, Serializer& out) {
  out.write(kMagic);
  out.write(kVersion);
  std::vector<WireNode> nodes;
  nodes.reserve(tree.num_nodes());
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const HstNode& node = tree.node(i);
    nodes.push_back(WireNode{node.cluster_id, node.point, node.parent,
                             node.level, node.edge_weight,
                             node.subtree_size});
  }
  out.write_vector(nodes);
  std::vector<std::uint32_t> leaves(tree.num_points());
  for (std::size_t p = 0; p < tree.num_points(); ++p) {
    leaves[p] = static_cast<std::uint32_t>(tree.leaf(p));
  }
  out.write_vector(leaves);
}

std::vector<std::uint8_t> hst_to_bytes(const Hst& tree) {
  Serializer s;
  serialize_hst(tree, s);
  return s.take();
}

Hst deserialize_hst(Deserializer& in) {
  if (in.read<std::uint32_t>() != kMagic) {
    throw MpteError("deserialize_hst: bad magic");
  }
  if (in.read<std::uint32_t>() != kVersion) {
    throw MpteError("deserialize_hst: unsupported version");
  }
  const auto wire = in.read_vector<WireNode>();
  std::vector<HstNode> nodes;
  nodes.reserve(wire.size());
  for (const WireNode& w : wire) {
    HstNode node;
    node.cluster_id = w.cluster_id;
    node.point = w.point;
    node.parent = w.parent;
    node.level = w.level;
    node.edge_weight = w.edge_weight;
    node.subtree_size = w.subtree_size;
    nodes.push_back(node);
  }
  auto leaves = in.read_vector<std::uint32_t>();
  Hst tree(std::move(nodes), std::move(leaves));
  const Status valid = tree.validate();
  if (!valid.ok()) {
    throw MpteError("deserialize_hst: invalid tree: " + valid.to_string());
  }
  return tree;
}

}  // namespace mpte
