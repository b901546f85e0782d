#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/persist/codec.h"
#include "src/persist/snapshot.h"

namespace cloudcache::testing {

/// One section of a snapshot container, as stored.
struct SectionBytes {
  std::string name;
  uint32_t stored_crc = 0;
  std::vector<uint8_t> payload;
};

/// A snapshot container split into its header fields and section payloads
/// (layout in src/persist/snapshot.h). `ok` is false if the container is
/// truncated or its magic or version is wrong.
struct SnapshotSections {
  bool ok = false;
  uint64_t config_hash = 0;
  std::vector<SectionBytes> sections;
};

inline std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    uint8_t chunk[4096];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      bytes.insert(bytes.end(), chunk, chunk + n);
    }
    std::fclose(f);
  }
  return bytes;
}

inline SnapshotSections SplitSnapshot(const std::vector<uint8_t>& bytes) {
  SnapshotSections out;
  persist::Decoder dec(bytes.data(), bytes.size());
  uint32_t magic = 0, version = 0, count = 0;
  dec.U32(magic);
  dec.U32(version);
  dec.U64(out.config_hash);
  dec.U32(count);
  if (!dec.ok() || magic != persist::kSnapshotMagic ||
      version != persist::kSnapshotFormatVersion) {
    return out;
  }
  for (uint32_t i = 0; i < count; ++i) {
    SectionBytes section;
    uint64_t size = 0;
    dec.Str(section.name);
    dec.U64(size);
    dec.U32(section.stored_crc);
    if (!dec.ok() || size > dec.remaining()) return out;
    const size_t offset = bytes.size() - dec.remaining();
    section.payload.assign(bytes.begin() + offset,
                           bytes.begin() + offset + size);
    out.sections.push_back(std::move(section));
    dec = persist::Decoder(bytes.data() + offset + size,
                           bytes.size() - offset - size);
  }
  out.ok = dec.ExpectEnd().ok();
  return out;
}

}  // namespace cloudcache::testing
