#include "src/persist/snapshot.h"

#include <cstdio>
#include <utility>

namespace cloudcache {
namespace persist {

Encoder* SnapshotWriter::AddSection(const std::string& name) {
  sections_.push_back(std::make_unique<Section>());
  sections_.back()->name = name;
  return &sections_.back()->encoder;
}

std::vector<uint8_t> SnapshotWriter::Serialize() const {
  Encoder out;
  out.U32(kSnapshotMagic);
  out.U32(kSnapshotFormatVersion);
  out.U64(config_hash_);
  out.U32(static_cast<uint32_t>(sections_.size()));
  for (const auto& section : sections_) {
    const std::vector<uint8_t>& payload = section->encoder.buffer();
    out.Str(section->name);
    out.U64(payload.size());
    out.U32(Crc32(payload));
    out.Bytes(payload.data(), payload.size());
  }
  return out.buffer();
}

Status SnapshotWriter::WriteToFile(const std::string& path) const {
  const std::vector<uint8_t> bytes = Serialize();
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open snapshot temp file: " + tmp);
  }
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  ok = std::fflush(file) == 0 && ok;
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to snapshot temp file: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename snapshot into place: " + path);
  }
  return Status::OK();
}

Result<SnapshotReader> SnapshotReader::FromBytes(std::vector<uint8_t> bytes) {
  SnapshotReader reader;
  reader.bytes_ = std::move(bytes);

  Decoder dec(reader.bytes_.data(), reader.bytes_.size());
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t count = 0;
  dec.U32(magic);
  dec.U32(version);
  dec.U64(reader.config_hash_);
  dec.U32(count);
  CLOUDCACHE_RETURN_IF_ERROR(dec.status());
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a cloudcache snapshot (bad magic)");
  }
  if (version != kSnapshotFormatVersion) {
    return Status::FailedPrecondition(
        "snapshot format version " + std::to_string(version) +
        " is not the supported version " +
        std::to_string(kSnapshotFormatVersion));
  }

  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    dec.Str(name);
    uint64_t size = 0;
    dec.U64(size);
    uint32_t crc = 0;
    dec.U32(crc);
    CLOUDCACHE_RETURN_IF_ERROR(dec.status());
    if (size > dec.remaining()) {
      return Status::OutOfRange("snapshot truncated inside section '" + name +
                                "'");
    }
    Span span;
    span.offset = reader.bytes_.size() - dec.remaining();
    span.size = static_cast<size_t>(size);
    const uint32_t actual =
        Crc32(reader.bytes_.data() + span.offset, span.size);
    if (actual != crc) {
      return Status::InvalidArgument("snapshot section '" + name +
                                     "' failed its CRC32 check");
    }
    if (!reader.sections_.emplace(name, span).second) {
      return Status::InvalidArgument("snapshot has duplicate section '" +
                                     name + "'");
    }
    // Re-seat the decoder past the payload.
    dec = Decoder(reader.bytes_.data() + span.offset + span.size,
                  reader.bytes_.size() - span.offset - span.size);
  }
  CLOUDCACHE_RETURN_IF_ERROR(dec.ExpectEnd());
  return reader;
}

Result<SnapshotReader> SnapshotReader::FromFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("snapshot file not found: " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::IoError("cannot read snapshot file: " + path);
  }
  return FromBytes(std::move(bytes));
}

Status SnapshotReader::ExpectConfigHash(uint64_t expected) const {
  if (config_hash_ != expected) {
    return Status::FailedPrecondition(
        "snapshot was taken under a different configuration (config hash " +
        std::to_string(config_hash_) + ", this run is " +
        std::to_string(expected) +
        "); restore requires identical scheme/seed/workload/tenant/cluster "
        "settings");
  }
  return Status::OK();
}

std::vector<std::string> SnapshotReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, span] : sections_) names.push_back(name);
  return names;
}

Result<Decoder> SnapshotReader::Section(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    return Status::NotFound("snapshot has no section '" + name + "'");
  }
  return Decoder(bytes_.data() + it->second.offset, it->second.size);
}

}  // namespace persist
}  // namespace cloudcache
