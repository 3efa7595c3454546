// A seeded mutation harness over the five decoders of outside bytes:
// embedding files (embedding_from_file_bytes, the decoder behind
// try_load_embedding), checkpoint snapshots (ckpt::Snapshot::from_bytes),
// ipc frames (ipc::decode_envelope), serve request lines
// (serve::parse_request) and the CLI's CSV point files
// (read_csv_points).
//
// Each decoder starts from a small valid encoding and is fed its
// mutations: seeded bit flips, every truncation, and at every byte offset
// the 8-byte word there replaced by 2^31, 2^62, 2^63, 2^64 - 1 and by
// itself + 2^62 and + 2^63. The word replacements are exhaustive, so a hostile length,
// count or dimension at any position is tried deterministically. For the
// enveloped formats the payload is mutated and re-wrapped with
// wrap_checksummed, so each mutation reaches the decoder behind a valid
// digest. Serve lines and CSV files get their numeric tokens replaced by
// huge, negative and non-finite values.
//
// The property: every input yields a kInvalidArgument Status, or an
// object that passes its own checks, and what it holds is bounded by the
// input's size. The ASan+UBSan CI leg runs this file, so a wild read or an
// overflowing conversion on the way fails too.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/embedding_io.hpp"
#include "geometry/csv_io.hpp"
#include "geometry/generators.hpp"
#include "ipc/frames.hpp"
#include "mpc/cluster.hpp"
#include "mpc/primitives.hpp"
#include "serve/wire.hpp"

namespace mpte {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t k2to31 = std::uint64_t{1} << 31;
constexpr std::uint64_t k2to62 = std::uint64_t{1} << 62;
constexpr std::uint64_t k2to63 = std::uint64_t{1} << 63;
constexpr int kBitFlipTrials = 512;

/// Calls `check` with every mutation of `valid`.
void for_each_mutation(const Bytes& valid, std::uint64_t seed,
                       const std::function<void(const Bytes&)>& check) {
  for (std::size_t length = 0; length < valid.size(); ++length) {
    check(Bytes(valid.begin(), valid.begin() + length));
  }
  Rng rng(seed);
  for (int trial = 0; trial < kBitFlipTrials; ++trial) {
    Bytes flipped = valid;
    const int flips = 1 + static_cast<int>(rng.uniform_u64(8));
    for (int f = 0; f < flips; ++f) {
      const std::uint64_t bit = rng.uniform_u64(8 * valid.size());
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    check(flipped);
  }
  Bytes word_set = valid;
  for (std::size_t at = 0; at < valid.size(); ++at) {
    // A word reaching past the end keeps only its low bytes.
    const std::size_t width = std::min<std::size_t>(8, valid.size() - at);
    std::uint64_t word = 0;
    std::memcpy(&word, valid.data() + at, width);
    for (const std::uint64_t value : {k2to31, k2to62, k2to63, ~std::uint64_t{0},
                                      word + k2to62, word + k2to63}) {
      std::memcpy(word_set.data() + at, &value, width);
      check(word_set);
    }
    std::memcpy(word_set.data() + at, valid.data() + at, width);
  }
}

/// The payload of a checksummed envelope.
Bytes payload_of(Bytes enveloped) {
  auto payload = unwrap_checksummed(std::move(enveloped), "valid input");
  EXPECT_TRUE(payload.ok()) << payload.status().to_string();
  return payload.ok() ? *payload : Bytes{};
}

void expect_invalid_argument(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.to_string();
}

// ------------------------------------------------------------- embedding

/// 60 points in R^4 (n divisible by 4, so 60 * 2^62 wraps to 0), their
/// coordinates and stable ids, behind the file envelope.
Bytes valid_embedding_file() {
  const PointSet points = generate_uniform_cube(60, 4, 30.0, 5);
  EmbedOptions options;
  options.use_fjlt = false;
  options.seed = 5;
  auto embedding = embed(points, options);
  EXPECT_TRUE(embedding.ok());
  for (std::size_t i = 0; i < points.size(); ++i) {
    embedding->point_ids.push_back(1000 + 7 * i);
  }
  return wrap_checksummed(embedding_to_bytes(*embedding, true));
}

void check_embedding(const Bytes& file) {
  const auto loaded = embedding_from_file_bytes(file, "mutated embedding");
  if (!loaded.ok()) {
    expect_invalid_argument(loaded.status());
    return;
  }
  const Hst& tree = loaded->tree;
  ASSERT_TRUE(tree.validate().ok());
  for (std::size_t p = 0; p < tree.num_points(); ++p) {
    const double d = tree.distance(0, p);
    ASSERT_TRUE(std::isfinite(d) && d >= 0.0) << "point " << p;
    // In input units: what every served answer is made of.
    const double scaled = loaded->distance(0, p);
    ASSERT_TRUE(std::isfinite(scaled) && scaled >= 0.0) << "point " << p;
  }
  // Point storage checked without overflow: size() rows of dim() each.
  const PointSet& points = loaded->embedded_points;
  for (const double coordinate : points.raw()) {
    ASSERT_TRUE(std::isfinite(coordinate));
  }
  if (points.dim() == 0) {
    ASSERT_TRUE(points.raw().empty());
  } else {
    ASSERT_EQ(points.raw().size() % points.dim(), 0u);
    ASSERT_EQ(points.raw().size() / points.dim(), points.size());
  }
  ASSERT_TRUE(points.empty() || points.size() == tree.num_points());
  ASSERT_LE(points.raw().size() * sizeof(double), file.size());
  ASSERT_TRUE(loaded->point_ids.empty() ||
              loaded->point_ids.size() == tree.num_points());
}

TEST(Decoders, EmbeddingFile) {
  const Bytes file = valid_embedding_file();
  check_embedding(file);
  ASSERT_TRUE(embedding_from_file_bytes(file, "valid").ok());
  for_each_mutation(payload_of(file), 1, [](const Bytes& payload) {
    check_embedding(wrap_checksummed(payload));
  });
  // The envelope itself, mutated without re-wrapping.
  for_each_mutation(file, 2, check_embedding);
}

// -------------------------------------------------------------- snapshot

/// A 3-machine cluster after a scatter, a reduction and a driver note.
Bytes valid_snapshot_file() {
  mpc::Cluster cluster(mpc::ClusterConfig{3, 1 << 20, true});
  std::vector<mpc::KV> records;
  for (std::uint64_t i = 0; i < 12; ++i) records.push_back({i % 4, i});
  mpc::scatter_vector(cluster, "in", records);
  mpc::reduce_kv_sum(cluster, "in", "sums");
  cluster.set_driver_note(mpc::Buffer(Bytes{1, 2, 3}));
  return ckpt::Snapshot::capture(cluster).to_bytes();
}

void check_snapshot(const Bytes& file) {
  const auto snapshot = ckpt::Snapshot::from_bytes(file, "mutated snapshot");
  if (!snapshot.ok()) {
    expect_invalid_argument(snapshot.status());
    return;
  }
  ASSERT_EQ(snapshot->rounds, snapshot->state.records.size());
  std::size_t held = snapshot->state.driver_note.size();
  for (const auto& machine : snapshot->state.machines) {
    for (const auto& [key, blob] : machine.store.entries()) {
      held += key.size() + blob.size();
    }
    for (const auto& message : machine.inbox) held += message.payload.size();
  }
  ASSERT_LE(held, file.size());
}

TEST(Decoders, Snapshot) {
  const Bytes file = valid_snapshot_file();
  check_snapshot(file);
  ASSERT_TRUE(ckpt::Snapshot::from_bytes(file, "valid").ok());
  for_each_mutation(payload_of(file), 3, [](const Bytes& payload) {
    check_snapshot(wrap_checksummed(payload));
  });
  for_each_mutation(file, 4, check_snapshot);
}

// ------------------------------------------------------------ ipc frames

/// A blob of `size` bytes; sizes of kArenaBlobMin or more travel through
/// the arena.
mpc::Buffer blob(std::size_t size, std::uint8_t fill) {
  return mpc::Buffer(Bytes(size, fill));
}

struct EncodedFrame {
  Bytes envelope;
  Bytes arena;
};

EncodedFrame encode_with_arena(
    const std::function<mpc::Buffer(ipc::BlobArena*)>& encode) {
  EncodedFrame out;
  out.arena.assign(2048, 0);
  ipc::BlobArena arena{out.arena.data(), out.arena.size(), 0};
  const mpc::Buffer envelope = encode(&arena);
  EXPECT_GT(arena.used, 0u);  // at least one blob went by reference
  out.arena.resize(arena.used);
  out.envelope.assign(envelope.data(), envelope.data() + envelope.size());
  return out;
}

EncodedFrame valid_step_frame() {
  ipc::StepFrame frame;
  frame.rank = 2;
  frame.round = 41;
  frame.step_name = "test/ring";
  frame.step_params = blob(8, 7);
  frame.store_patch.push_back({"alpha", true, blob(3, 1)});
  frame.store_patch.push_back({"beta", false, mpc::Buffer()});
  frame.store_patch.push_back({"gamma", true, blob(300, 2)});
  frame.inbox.push_back(mpc::Message{1, blob(5, 9)});
  frame.inbox.push_back(mpc::Message{0, blob(260, 4)});
  return encode_with_arena(
      [&](ipc::BlobArena* arena) { return ipc::encode_step(frame, arena); });
}

EncodedFrame valid_result_frame() {
  ipc::ResultFrame frame;
  frame.rank = 3;
  frame.round = 17;
  frame.store_delta.push_back({"alpha", true, blob(5, 1)});
  frame.store_delta.push_back({"beta", false, mpc::Buffer()});
  frame.store_delta.push_back({"delta", true, blob(280, 3)});
  frame.fragments.resize(3);
  frame.fragments[1].push_back(blob(2, 9));
  frame.fragments[2].push_back(blob(256, 6));
  frame.channel_bytes["test/chan"] = 258;
  return encode_with_arena(
      [&](ipc::BlobArena* arena) { return ipc::encode_result(frame, arena); });
}

void check_frame(const Bytes& envelope, const Bytes& arena) {
  const auto frame = ipc::decode_envelope(envelope, arena);
  if (!frame.ok()) {
    expect_invalid_argument(frame.status());
    return;
  }
  ASSERT_EQ(frame->wire_bytes, envelope.size());
  // Every blob is read inline or from the arena, and all of them together
  // copy no more than the frame and the arena hold.
  std::size_t total = 0;
  const auto add = [&](const mpc::Buffer& b) { total += b.size(); };
  for (const auto& delta : frame->result.store_delta) add(delta.blob);
  for (const auto& cell : frame->result.fragments) {
    for (const auto& fragment : cell) add(fragment);
  }
  add(frame->step.step_params);
  for (const auto& delta : frame->step.store_patch) add(delta.blob);
  for (const auto& message : frame->step.inbox) add(message.payload);
  ASSERT_LE(total, envelope.size() + arena.size());
}

void check_frame_mutations(const EncodedFrame& valid, std::uint64_t seed) {
  check_frame(valid.envelope, valid.arena);
  ASSERT_TRUE(ipc::decode_envelope(valid.envelope, valid.arena).ok());
  for_each_mutation(payload_of(valid.envelope), seed,
                    [&](const Bytes& payload) {
                      check_frame(wrap_checksummed(payload), valid.arena);
                    });
  for_each_mutation(valid.envelope, seed + 1, [&](const Bytes& envelope) {
    check_frame(envelope, valid.arena);
  });
}

TEST(Decoders, StepFrame) { check_frame_mutations(valid_step_frame(), 5); }

TEST(Decoders, ResultFrame) {
  check_frame_mutations(valid_result_frame(), 7);
}

// ------------------------------------------------------------ serve lines

const char* const kValidLines[] = {
    "dist 3 9",           "dist 1 2 min 10",  "knn 5 8 exp 250",
    "range 2 12.5 min",   "range 0 3 exp 5",  "upsert 1.5 -2 3e1",
    "remove 17",
};

const char* const kHostileNumbers[] = {
    "18446744073709551615", "18446744073709551616", "9223372036854775807",
    "9223372036854775808",  "99999999999999999999", "-1",
    "-9223372036854775808", "nan",                  "-nan",
    "inf",                  "-inf",                 "1e400",
    "-1e400",               "1e-400",               "0x10",
    "+7",                   "86400001",             "",
};

void check_line(const std::string& line) {
  const auto request = serve::parse_request(line);
  if (!request.ok()) {
    expect_invalid_argument(request.status());
    return;
  }
  // A queued request's clock arithmetic (now + deadline) cannot overflow.
  ASSERT_GE(request->deadline.count(), 0) << line;
  ASSERT_LE(request->deadline,
            std::chrono::milliseconds(serve::kMaxDeadlineMs))
      << line;
  ASSERT_LE(request->coords.size(), line.size()) << line;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

TEST(Decoders, ServeLines) {
  std::uint64_t seed = 9;
  for (const std::string line : kValidLines) {
    ASSERT_TRUE(serve::parse_request(line).ok()) << line;
    const auto tokens = tokens_of(line);
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      if (tokens[t] == "min" || tokens[t] == "exp") continue;
      for (const std::string hostile : kHostileNumbers) {
        std::string mutated = tokens[0];
        for (std::size_t u = 1; u < tokens.size(); ++u) {
          mutated += " " + (u == t ? hostile : tokens[u]);
        }
        check_line(mutated);
      }
    }
    for_each_mutation(Bytes(line.begin(), line.end()), seed++,
                      [](const Bytes& bytes) {
                        check_line(std::string(bytes.begin(), bytes.end()));
                      });
  }
}

// -------------------------------------------------------------- CSV points

void check_csv(const std::string& text) {
  std::istringstream in(text);
  PointSet points;
  try {
    points = read_csv_points(in);
  } catch (const MpteError&) {
    return;
  }
  for (const double coordinate : points.raw()) {
    ASSERT_TRUE(std::isfinite(coordinate)) << text;
  }
  ASSERT_EQ(points.raw().size(), points.size() * points.dim()) << text;
}

TEST(Decoders, CsvPoints) {
  // What `mpte_cli generate ... clusters` writes, at a testable size.
  std::ostringstream out;
  write_csv_points(generate_gaussian_clusters(12, 3, 3, 100.0, 1.0, 11), out);
  const std::string valid = out.str();
  std::istringstream in(valid);
  ASSERT_EQ(read_csv_points(in).size(), 12u);

  // Each field in turn replaced by each hostile number.
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(valid);
  for (std::string line; std::getline(lines, line);) {
    std::vector<std::string> fields;
    std::istringstream cells(line);
    for (std::string cell; std::getline(cells, cell, ',');) {
      fields.push_back(cell);
    }
    rows.push_back(fields);
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t f = 0; f < rows[r].size(); ++f) {
      for (const std::string hostile : kHostileNumbers) {
        std::string text;
        for (std::size_t s = 0; s < rows.size(); ++s) {
          for (std::size_t g = 0; g < rows[s].size(); ++g) {
            if (g > 0) text += ',';
            text += s == r && g == f ? hostile : rows[s][g];
          }
          text += '\n';
        }
        check_csv(text);
      }
    }
  }
  for_each_mutation(Bytes(valid.begin(), valid.end()), 13,
                    [](const Bytes& bytes) {
                      check_csv(std::string(bytes.begin(), bytes.end()));
                    });
}

}  // namespace
}  // namespace mpte
