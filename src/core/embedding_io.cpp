#include "core/embedding_io.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/checksum.hpp"
#include "tree/hst_io.hpp"

namespace mpte {
namespace {

constexpr std::uint32_t kMagic = 0x4d504542;  // "MPEB"
/// Config, the stable point-id vector (empty = identity 0..n-1),
/// optional points, then the tree.
constexpr std::uint32_t kVersion = 2;

/// Twice the deepest weight depth of `tree`: no dist_T exceeds it.
double diameter_bound(const Hst& tree) {
  std::vector<double> depth(tree.num_nodes(), 0.0);
  double deepest = 0.0;
  for (std::size_t i = 1; i < tree.num_nodes(); ++i) {
    const HstNode& node = tree.node(i);
    depth[i] = depth[static_cast<std::size_t>(node.parent)] + node.edge_weight;
    deepest = std::max(deepest, depth[i]);
  }
  return 2.0 * deepest;
}

/// What keeps an embedding out of a file, or nullptr: the one rule the
/// encoder and the decoder share. Every distance served from a file is the
/// scale times a tree distance, and every pipeline writes a positive,
/// finite lattice cell, so the scale must be > 0 and keep every distance
/// finite. Every stored coordinate must be finite too.
const char* unstorable(double scale, const Hst& tree,
                       std::span<const double> coordinates) {
  for (const double coordinate : coordinates) {
    if (!std::isfinite(coordinate)) return "non-finite coordinate";
  }
  if (!(scale > 0.0) || !std::isfinite(scale * diameter_bound(tree))) {
    return "scale must be > 0 and keep every distance finite";
  }
  return nullptr;
}

}  // namespace

void serialize_embedding(const Embedding& embedding, bool include_points,
                         Serializer& out) {
  const std::span<const double> coordinates =
      include_points ? std::span<const double>(embedding.embedded_points.raw())
                     : std::span<const double>();
  if (const char* why = unstorable(embedding.scale_to_input, embedding.tree,
                                   coordinates)) {
    throw MpteError(std::string("serialize_embedding: ") + why);
  }
  out.write(kMagic);
  out.write(kVersion);
  out.write(embedding.scale_to_input);
  out.write(embedding.delta_used);
  out.write(embedding.buckets_used);
  out.write(static_cast<std::uint64_t>(embedding.grids_used));
  out.write(static_cast<std::uint64_t>(embedding.dim_used));
  out.write(static_cast<std::uint8_t>(embedding.fjlt_applied ? 1 : 0));
  out.write(static_cast<std::int32_t>(embedding.retries_used));
  out.write_vector(embedding.point_ids);
  out.write(static_cast<std::uint8_t>(include_points ? 1 : 0));
  if (include_points) {
    out.write(static_cast<std::uint64_t>(embedding.embedded_points.size()));
    out.write(static_cast<std::uint64_t>(embedding.embedded_points.dim()));
    out.write_vector(embedding.embedded_points.raw());
  }
  serialize_hst(embedding.tree, out);
}

std::vector<std::uint8_t> embedding_to_bytes(const Embedding& embedding,
                                             bool include_points) {
  Serializer s;
  serialize_embedding(embedding, include_points, s);
  return s.take();
}

Embedding deserialize_embedding(Deserializer& in) {
  if (in.read<std::uint32_t>() != kMagic) {
    throw MpteError("deserialize_embedding: bad magic");
  }
  if (in.read<std::uint32_t>() != kVersion) {
    throw MpteError("deserialize_embedding: unsupported version");
  }
  const auto scale = in.read<double>();
  const auto delta = in.read<std::uint64_t>();
  const auto buckets = in.read<std::uint32_t>();
  const auto grids = in.read<std::uint64_t>();
  const auto dim_used = in.read<std::uint64_t>();
  const auto fjlt = in.read<std::uint8_t>();
  const auto retries = in.read<std::int32_t>();
  auto point_ids = in.read_vector<std::uint64_t>();
  const auto has_points = in.read<std::uint8_t>();
  PointSet points;
  if (has_points != 0) {
    const auto n = in.read<std::uint64_t>();
    const auto dim = in.read<std::uint64_t>();
    points = PointSet(n, dim, in.read_vector<double>());
  }
  Hst tree = deserialize_hst(in);
  if (const char* why = unstorable(scale, tree, points.raw())) {
    throw MpteError(std::string("deserialize_embedding: ") + why);
  }
  if (has_points != 0 && points.size() != tree.num_points()) {
    throw MpteError("deserialize_embedding: point/tree size mismatch");
  }
  if (!point_ids.empty() && point_ids.size() != tree.num_points()) {
    throw MpteError("deserialize_embedding: ids/tree size mismatch");
  }
  return Embedding{std::move(tree),
                   std::move(points),
                   scale,
                   delta,
                   buckets,
                   static_cast<std::size_t>(grids),
                   static_cast<std::size_t>(dim_used),
                   fjlt != 0,
                   retries,
                   std::move(point_ids)};
}

Embedding embedding_from_bytes(const std::vector<std::uint8_t>& bytes) {
  Deserializer d(bytes);
  return deserialize_embedding(d);
}

void save_embedding(const Embedding& embedding, const std::string& path,
                    bool include_points) {
  const auto enveloped =
      wrap_checksummed(embedding_to_bytes(embedding, include_points));
  const Status status = write_file_atomic(path, enveloped);
  if (!status.ok()) throw MpteError("save_embedding: " + status.to_string());
}

Embedding load_embedding(const std::string& path) {
  auto embedding = try_load_embedding(path);
  if (!embedding.ok()) {
    throw MpteError("load_embedding: " + embedding.status().to_string());
  }
  return std::move(*embedding);
}

Result<Embedding> try_load_embedding(const std::string& path) {
  auto file_bytes = read_file_bytes(path);
  if (!file_bytes.ok()) return file_bytes.status();
  return embedding_from_file_bytes(std::move(*file_bytes), path);
}

Result<Embedding> embedding_from_file_bytes(
    std::vector<std::uint8_t> file_bytes, const std::string& context) {
  auto payload = unwrap_checksummed(std::move(file_bytes), context);
  if (!payload.ok()) return payload.status();
  try {
    return embedding_from_bytes(*payload);
  } catch (const MpteError& error) {
    return Status(StatusCode::kInvalidArgument,
                  context + ": " + error.what());
  }
}

}  // namespace mpte
