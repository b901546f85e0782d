#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/money.h"
#include "src/util/status.h"

namespace cloudcache {
namespace persist {

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span.
/// Software table-driven; snapshots are written once per checkpoint window,
/// so this is nowhere near a hot path.
uint32_t Crc32(const uint8_t* data, size_t size);
inline uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

/// Append-only little-endian byte sink. All integers are fixed-width
/// little-endian; doubles are bit-cast to uint64_t, so a save→load round
/// trip reproduces every value bit for bit (including -0.0, infinities,
/// and NaN payloads — Histogram min/max start at ±inf).
class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v) { PutLittleEndian(v, 4); }
  void PutU64(uint64_t v) { PutLittleEndian(v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutMoney(Money v) { PutI64(v.micros()); }
  void PutString(const std::string& s) {
    PutU64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void PutBytes(const uint8_t* data, size_t size) {
    buf_.insert(buf_.end(), data, data + size);
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  void PutLittleEndian(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a byte span (not owned). Every read returns
/// a Status instead of asserting: snapshot bytes come from disk and may be
/// truncated or corrupt, and the loader must fail descriptively, never
/// crash (the corruption fuzz test runs this under ASan/UBSan).
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status ReadU8(uint8_t* out) {
    CLOUDCACHE_RETURN_IF_ERROR(Need(1));
    *out = data_[pos_++];
    return Status::OK();
  }
  Status ReadBool(bool* out) {
    uint8_t v = 0;
    CLOUDCACHE_RETURN_IF_ERROR(ReadU8(&v));
    if (v > 1) {
      return Status::InvalidArgument("corrupt bool byte in snapshot");
    }
    *out = v != 0;
    return Status::OK();
  }
  Status ReadU32(uint32_t* out) {
    uint64_t v = 0;
    CLOUDCACHE_RETURN_IF_ERROR(ReadLittleEndian(&v, 4));
    *out = static_cast<uint32_t>(v);
    return Status::OK();
  }
  Status ReadU64(uint64_t* out) { return ReadLittleEndian(out, 8); }
  Status ReadI64(int64_t* out) {
    uint64_t v = 0;
    CLOUDCACHE_RETURN_IF_ERROR(ReadU64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }
  Status ReadDouble(double* out) {
    uint64_t bits = 0;
    CLOUDCACHE_RETURN_IF_ERROR(ReadU64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }
  Status ReadMoney(Money* out) {
    int64_t micros = 0;
    CLOUDCACHE_RETURN_IF_ERROR(ReadI64(&micros));
    *out = Money::FromMicros(micros);
    return Status::OK();
  }
  Status ReadString(std::string* out) {
    uint64_t size = 0;
    CLOUDCACHE_RETURN_IF_ERROR(ReadU64(&size));
    CLOUDCACHE_RETURN_IF_ERROR(Need(size));
    out->assign(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return Status::OK();
  }
  /// Reads a length prefix destined for a reserve()/resize() call. The
  /// length of any serialized sequence is bounded by the bytes that
  /// remain, so a corrupt huge count fails here instead of as an OOM
  /// inside the container.
  Status ReadLength(uint64_t* out) {
    CLOUDCACHE_RETURN_IF_ERROR(ReadU64(out));
    if (*out > remaining()) {
      return Status::OutOfRange("corrupt sequence length in snapshot");
    }
    return Status::OK();
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  /// Remaining bytes must be exactly zero once a section is fully decoded;
  /// trailing garbage means the writer and reader disagree on the layout.
  Status ExpectEnd() const {
    if (!AtEnd()) {
      return Status::InvalidArgument("trailing bytes after snapshot section");
    }
    return Status::OK();
  }

 private:
  Status Need(uint64_t bytes) const {
    if (bytes > remaining()) {
      return Status::OutOfRange("snapshot truncated: read past end of section");
    }
    return Status::OK();
  }
  Status ReadLittleEndian(uint64_t* out, int bytes) {
    CLOUDCACHE_RETURN_IF_ERROR(Need(static_cast<uint64_t>(bytes)));
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += static_cast<size_t>(bytes);
    *out = v;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace persist
}  // namespace cloudcache
