#include "ckpt/snapshot.hpp"

#include "common/checksum.hpp"
#include "common/serialize.hpp"

namespace mpte::ckpt {

namespace {

void write_buffer(Serializer& s, const mpc::Buffer& buffer) {
  s.write(static_cast<std::uint64_t>(buffer.size()));
  s.write_raw(buffer.span());
}

mpc::Buffer read_buffer(Deserializer& d) {
  return mpc::Buffer(d.read_vector<std::uint8_t>());
}

Snapshot decode_payload(std::span<const std::uint8_t> payload,
                        const std::string& context) {
  Deserializer d(payload);
  const auto magic = d.read<std::uint32_t>();
  if (magic != Snapshot::kMagic) {
    throw MpteError(context + ": not a snapshot (bad payload magic)");
  }
  const auto version = d.read<std::uint32_t>();
  if (version != Snapshot::kVersion) {
    throw MpteError(context + ": unsupported snapshot version " +
                    std::to_string(version));
  }

  Snapshot snap;
  snap.rounds = d.read<std::uint64_t>();
  // Each machine holds at least its blob and message counts.
  const auto num_machines = d.read_count(2 * sizeof(std::uint64_t));
  snap.state.machines.resize(num_machines);
  for (auto& machine : snap.state.machines) {
    const auto num_blobs = d.read<std::uint64_t>();
    for (std::uint64_t b = 0; b < num_blobs; ++b) {
      const std::string key = d.read_string();
      machine.store.set_blob(key, read_buffer(d));
    }
    const auto num_messages =
        d.read_count(sizeof(mpc::MachineId) + sizeof(std::uint64_t));
    machine.inbox.reserve(num_messages);
    for (std::uint64_t i = 0; i < num_messages; ++i) {
      const auto from = d.read<mpc::MachineId>();
      machine.inbox.push_back(mpc::Message{from, read_buffer(d)});
    }
  }

  // A record is at least a label length, six counters and a channel
  // count.
  const auto num_records = d.read_count(8 * sizeof(std::uint64_t));
  if (num_records != snap.rounds) {
    throw MpteError(context + ": record count " +
                    std::to_string(num_records) +
                    " disagrees with round counter " +
                    std::to_string(snap.rounds));
  }
  snap.state.records.resize(num_records);
  for (auto& r : snap.state.records) {
    r.label = d.read_string();
    r.max_sent_bytes = d.read<std::uint64_t>();
    r.max_recv_bytes = d.read<std::uint64_t>();
    r.total_message_bytes = d.read<std::uint64_t>();
    r.max_resident_bytes = d.read<std::uint64_t>();
    r.total_resident_bytes = d.read<std::uint64_t>();
    r.violations = d.read<std::uint64_t>();
    const auto num_channels = d.read<std::uint64_t>();
    for (std::uint64_t c = 0; c < num_channels; ++c) {
      const std::string channel = d.read_string();
      r.channel_bytes[channel] = d.read<std::uint64_t>();
    }
  }

  (void)d.read_vector<std::uint8_t>();  // the unused cursor slot
  snap.state.driver_note = read_buffer(d);
  if (!d.exhausted()) {
    throw MpteError(context + ": trailing bytes after snapshot payload");
  }
  return snap;
}

}  // namespace

Snapshot Snapshot::capture(const mpc::Cluster& cluster) {
  Snapshot snap;
  snap.state = cluster.capture_state();
  snap.rounds = snap.state.records.size();
  return snap;
}

std::vector<std::uint8_t> Snapshot::to_bytes() const {
  Serializer s;
  s.write(kMagic);
  s.write(kVersion);
  s.write(static_cast<std::uint64_t>(rounds));
  s.write(static_cast<std::uint64_t>(state.machines.size()));
  for (const auto& machine : state.machines) {
    const auto entries = machine.store.entries();
    s.write(static_cast<std::uint64_t>(entries.size()));
    for (const auto& [key, blob] : entries) {
      s.write_string(key);
      write_buffer(s, blob);
    }
    s.write(static_cast<std::uint64_t>(machine.inbox.size()));
    for (const auto& message : machine.inbox) {
      s.write(message.from);
      write_buffer(s, message.payload);
    }
  }
  s.write(static_cast<std::uint64_t>(state.records.size()));
  for (const auto& r : state.records) {
    s.write_string(r.label);
    s.write(static_cast<std::uint64_t>(r.max_sent_bytes));
    s.write(static_cast<std::uint64_t>(r.max_recv_bytes));
    s.write(static_cast<std::uint64_t>(r.total_message_bytes));
    s.write(static_cast<std::uint64_t>(r.max_resident_bytes));
    s.write(static_cast<std::uint64_t>(r.total_resident_bytes));
    s.write(static_cast<std::uint64_t>(r.violations));
    s.write(static_cast<std::uint64_t>(r.channel_bytes.size()));
    for (const auto& [channel, bytes] : r.channel_bytes) {
      s.write_string(channel);
      s.write(static_cast<std::uint64_t>(bytes));
    }
  }
  s.write_vector(std::vector<std::uint8_t>{});  // the unused cursor slot
  write_buffer(s, state.driver_note);
  return wrap_checksummed(s.bytes());
}

Result<Snapshot> Snapshot::from_bytes(std::vector<std::uint8_t> file_bytes,
                                      const std::string& context) {
  auto payload = unwrap_checksummed(std::move(file_bytes), context);
  if (!payload.ok()) return payload.status();
  try {
    return decode_payload(*payload, context);
  } catch (const MpteError& e) {
    // A checksum-valid but structurally impossible payload (or a short
    // read racing the envelope) is still a rejected file, not UB.
    return Status(StatusCode::kInvalidArgument, e.what());
  }
}

Result<Snapshot> Snapshot::read(const std::string& path) {
  auto bytes = read_file_bytes(path);
  if (!bytes.ok()) return bytes.status();
  return from_bytes(std::move(*bytes), path);
}

}  // namespace mpte::ckpt
