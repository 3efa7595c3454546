// The HST payload codec.
//
// One of the motivations the paper gives for tree embeddings is that the
// O(n)-size tree is a *compact, storable* sketch of the metric: embed
// once, persist, answer distance/cluster queries later without the
// original O(nd) data. This header gives the tree's byte format
// (versioned, length-prefixed, using the common Serializer wire
// encoding): magic, version 1, the nodes, then the leaf index. Its bytes
// are frozen: the cross-backend golden fingerprints hash
// hst_to_bytes(tree), and every embedding file embeds them.
//
// It is a payload, not a file format. A tree reaches disk only inside an
// embedding file (core/embedding_io.hpp), which also holds the tree's
// stable point ids.
#pragma once

#include <cstdint>
#include <vector>

#include "common/serialize.hpp"
#include "tree/hst.hpp"

namespace mpte {

/// Serializes the full tree (nodes + leaf index) into `out`.
void serialize_hst(const Hst& tree, Serializer& out);

/// Convenience: serialized bytes of the tree.
std::vector<std::uint8_t> hst_to_bytes(const Hst& tree);

/// Reconstructs a tree; throws MpteError on malformed input, on any
/// version but 1, or when the decoded tree fails Hst::validate.
Hst deserialize_hst(Deserializer& in);

}  // namespace mpte
