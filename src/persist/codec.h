#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
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

// Encoder and Decoder share one set of verbs, each named for its wire
// width (U8, U32, U64, I64, F64, Bool, Money, Str) plus the u64-length-
// prefixed Seq. Every verb takes the field itself, so a record's layout
// is one function template over the codec (`Fields(Codec& c, Self& s)`),
// run by SaveState with an Encoder and by RestoreState with a Decoder,
// which checks `status()` before validating anything it read. A field
// whose type does not match its verb exactly does not compile, so a type
// change can never silently change the bytes (docs/persistence.md).

/// Append-only little-endian byte sink. All integers are fixed-width
/// little-endian; doubles are bit-cast to uint64_t, so a save→load round
/// trip reproduces every value bit for bit (including -0.0, infinities,
/// and NaN payloads — Histogram min/max start at ±inf).
class Encoder {
 public:
  static constexpr bool kDecoding = false;

  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { PutLittleEndian(v, 4); }
  void U64(uint64_t v) { PutLittleEndian(v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bool(bool v) { buf_.push_back(v ? 1 : 0); }
  void Money(cloudcache::Money v) { I64(v.micros()); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// The element count, then `each(element)` for every element in order.
  template <typename Container, typename Fn>
  void Seq(const Container& items, Fn&& each) {
    U64(items.size());
    for (const auto& item : items) each(item);
  }
  /// The count of a hand-laid sequence (a u64; see Decoder::Length).
  void Length(uint64_t n) { U64(n); }
  /// A component with its own SaveState, as one field. `restore_args`
  /// are what its RestoreState takes after the decoder; saving ignores
  /// them.
  template <typename Component, typename... RestoreArgs>
  void Nested(const Component& component, const RestoreArgs&...) {
    component.SaveState(this);
  }

  template <typename T>
  void U8(T) = delete;
  template <typename T>
  void U32(T) = delete;
  template <typename T>
  void U64(T) = delete;
  template <typename T>
  void I64(T) = delete;
  template <typename T>
  void F64(T) = delete;
  template <typename T>
  void Bool(T) = delete;

  /// Raw bytes, no length prefix (the snapshot container and the frame
  /// writer carry the length themselves).
  void Bytes(const uint8_t* data, size_t size) {
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

/// Bounds-checked reader over a byte span (not owned). Snapshot bytes come
/// from disk and frames from a socket, so they may be truncated or
/// corrupt: the decoder keeps the first error it meets and turns every
/// later read into a no-op that leaves its field untouched. It never
/// asserts and never reads out of bounds (the corruption fuzz tests run
/// it under ASan/UBSan).
class Decoder {
 public:
  static constexpr bool kDecoding = true;

  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  void U8(uint8_t& v) { ReadLittleEndian(v, 1); }
  void U32(uint32_t& v) { ReadLittleEndian(v, 4); }
  void U64(uint64_t& v) { ReadLittleEndian(v, 8); }
  void I64(int64_t& v) { ReadLittleEndian(v, 8); }
  void F64(double& v) {
    uint64_t bits = 0;
    if (ReadLittleEndian(bits, 8)) std::memcpy(&v, &bits, sizeof(v));
  }
  void Bool(bool& v) {
    uint8_t byte = 0;
    U8(byte);
    if (byte > 1) {
      Fail(Status::InvalidArgument("corrupt bool byte in snapshot"));
    }
    if (ok()) v = byte != 0;
  }
  void Money(cloudcache::Money& v) {
    int64_t micros = 0;
    I64(micros);
    if (ok()) v = cloudcache::Money::FromMicros(micros);
  }
  void Str(std::string& s) {
    uint64_t size = 0;
    U64(size);
    if (!Need(size)) return;
    s.assign(reinterpret_cast<const char*>(data_ + pos_),
             static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
  }
  /// Reads the element count, resizes `items` to it, then runs
  /// `each(element)` for every element until the first error.
  template <typename Container, typename Fn>
  void Seq(Container& items, Fn&& each) {
    uint64_t count = 0;
    Length(count);
    if (!ok()) return;
    items.clear();
    items.resize(static_cast<size_t>(count));
    for (auto& item : items) {
      each(item);
      if (!ok()) return;
    }
  }
  /// Reads a sequence length for a hand-written body. The length of any
  /// serialized sequence is bounded by the bytes that remain, so a corrupt
  /// huge count fails here instead of as an OOM inside a container.
  void Length(uint64_t& n) {
    uint64_t count = 0;
    U64(count);
    if (count > remaining()) {
      Fail(Status::OutOfRange("corrupt sequence length in snapshot"));
    }
    if (ok()) n = count;
  }
  /// A component with its own RestoreState, as one field; its error
  /// becomes the decoder's.
  template <typename Component, typename... RestoreArgs>
  void Nested(Component& component, const RestoreArgs&... restore_args) {
    if (ok()) Fail(component.RestoreState(this, restore_args...));
  }

  /// Records `status` as the decoder's error unless one is already kept.
  void Fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
  }
  bool ok() const { return status_.ok(); }
  /// The first error met, or OK.
  const Status& status() const { return status_; }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  /// The first error, or — once a section or message is fully decoded —
  /// an error if bytes remain: trailing garbage means the writer and
  /// reader disagree on the layout.
  Status ExpectEnd() const {
    if (ok() && !AtEnd()) {
      return Status::InvalidArgument("trailing bytes after snapshot section");
    }
    return status_;
  }

 private:
  bool Need(uint64_t bytes) {
    if (!ok()) return false;
    if (bytes > remaining()) {
      Fail(Status::OutOfRange("snapshot truncated: read past end of section"));
      return false;
    }
    return true;
  }
  template <typename Int>
  bool ReadLittleEndian(Int& v, int bytes) {
    if (!Need(static_cast<uint64_t>(bytes))) return false;
    uint64_t bits = 0;
    for (int i = 0; i < bytes; ++i) {
      bits |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
    }
    v = static_cast<Int>(bits);
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace persist
}  // namespace cloudcache
