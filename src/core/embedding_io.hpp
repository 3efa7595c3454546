// Embedding persistence: the one on-disk tree format.
//
// The point of a tree embedding as a data structure is that it is a
// compact, storable sketch: embed once (possibly on a cluster), persist,
// answer distance/cluster queries later without the original O(nd) data.
// This serializes a full Embedding — tree (the tree/hst_io payload,
// byte for byte), input-unit scale, pipeline metadata, the stable point
// ids (Embedding::point_ids; empty = dense identity, filled by dyn/) and
// optionally the embedded coordinates — as a version-2 payload.
//
// An embedding file is that payload inside the checksummed file envelope
// (common/checksum.hpp); it is the only form in which a tree reaches
// disk. A truncated or corrupted file, a file without the envelope, a
// payload of any other version, and a payload that decodes to an invalid
// tree or an inconsistent point or id count are all rejected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "common/status.hpp"
#include "core/embedder.hpp"

namespace mpte {

/// Serializes the embedding. `include_points` controls whether the
/// embedded (quantized) coordinates travel along — they are only needed
/// for coordinate-based post-processing (e.g. tree_mst edge lengths), not
/// for tree-metric queries. Throws MpteError, before writing a byte, on
/// what the decoder refuses: a scale that is not > 0 or that makes a tree
/// distance overflow, or a non-finite stored coordinate.
void serialize_embedding(const Embedding& embedding, bool include_points,
                         Serializer& out);

std::vector<std::uint8_t> embedding_to_bytes(const Embedding& embedding,
                                             bool include_points = true);

/// Reconstructs an embedding; throws MpteError on malformed input. If the
/// payload was written without points, `embedded_points` is empty.
Embedding deserialize_embedding(Deserializer& in);

Embedding embedding_from_bytes(const std::vector<std::uint8_t>& bytes);

/// File convenience wrappers. save_embedding throws before it creates the
/// file when serialize_embedding refuses the embedding.
void save_embedding(const Embedding& embedding, const std::string& path,
                    bool include_points = true);
Embedding load_embedding(const std::string& path);

/// Like load_embedding but reports failure as a Status instead of
/// throwing: kUnavailable when the file cannot be opened, kInvalidArgument
/// when it lacks the envelope, is truncated, fails its checksum, or
/// decodes to an invalid embedding.
Result<Embedding> try_load_embedding(const std::string& path);

/// The decoder behind try_load_embedding, over the bytes of a file named
/// `context`: the same kInvalidArgument cases, without touching the disk.
Result<Embedding> embedding_from_file_bytes(
    std::vector<std::uint8_t> file_bytes, const std::string& context);

}  // namespace mpte
