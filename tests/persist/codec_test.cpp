#include "src/persist/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace cloudcache::persist {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  const std::string digits = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(digits.data()),
                  digits.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SingleBitFlipsChangeTheChecksum) {
  std::vector<uint8_t> bytes(64, 0xA5);
  const uint32_t reference = Crc32(bytes);
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(Crc32(bytes), reference) << "byte " << i << " bit " << bit;
      bytes[i] ^= static_cast<uint8_t>(1u << bit);
    }
  }
}

/// A record written the way production records are: one field list,
/// run by the Encoder on save and by the Decoder on restore.
struct Sample {
  uint8_t u8 = 0;
  bool flag = false;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0;
  Money money;
  std::string text;
  std::vector<uint32_t> ids;

  template <typename Codec, typename Self>
  static void Fields(Codec& c, Self& self) {
    c.U8(self.u8);
    c.Bool(self.flag);
    c.U32(self.u32);
    c.U64(self.u64);
    c.I64(self.i64);
    c.F64(self.f64);
    c.Money(self.money);
    c.Str(self.text);
    c.Seq(self.ids, [&c](auto& id) { c.U32(id); });
  }
};

Sample FullSample() {
  Sample sample;
  sample.u8 = 0xFE;
  sample.flag = true;
  sample.u32 = 0xDEADBEEFu;
  sample.u64 = 0x0123456789ABCDEFull;
  sample.i64 = -42;
  sample.f64 = 3.141592653589793;
  sample.money = Money::FromMicros(-7'000'001);
  sample.text = "cloudcache";
  sample.ids = {7, 0, 4'000'000'000u};
  return sample;
}

TEST(CodecTest, RoundTripsEveryScalarType) {
  const Sample saved = FullSample();
  Encoder enc;
  Sample::Fields(enc, saved);
  // 1 + 1 + 4 + 8 + 8 + 8 + 8 + (8 + 10) + (8 + 3 * 4) bytes.
  EXPECT_EQ(enc.size(), 76u);

  Sample restored;
  Decoder dec(enc.buffer().data(), enc.size());
  Sample::Fields(dec, restored);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(restored.u8, 0xFE);
  EXPECT_TRUE(restored.flag);
  EXPECT_EQ(restored.u32, 0xDEADBEEFu);
  EXPECT_EQ(restored.u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(restored.i64, -42);
  EXPECT_EQ(restored.f64, 3.141592653589793);
  EXPECT_EQ(restored.money.micros(), -7'000'001);
  EXPECT_EQ(restored.text, "cloudcache");
  EXPECT_EQ(restored.ids, saved.ids);
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_TRUE(dec.ExpectEnd().ok());
}

TEST(CodecTest, EmptyStringAndSequenceRoundTrip) {
  const Sample saved;
  Encoder enc;
  Sample::Fields(enc, saved);
  Sample restored = FullSample();
  Decoder dec(enc.buffer().data(), enc.size());
  Sample::Fields(dec, restored);
  ASSERT_TRUE(dec.ExpectEnd().ok());
  EXPECT_EQ(restored.text, "");
  EXPECT_TRUE(restored.ids.empty());
}

TEST(CodecTest, DoublesRoundTripBitForBit) {
  // The stats accumulators start min/max at +/-inf, and NaN payloads must
  // survive unchanged: the codec bit-casts, never converts.
  const double values[] = {
      0.0, -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(), -1.5e308};
  Encoder enc;
  for (double v : values) enc.F64(v);
  Decoder dec(enc.buffer().data(), enc.size());
  for (double v : values) {
    double out = 0;
    dec.F64(out);
    ASSERT_TRUE(dec.ok());
    uint64_t want = 0, got = 0;
    std::memcpy(&want, &v, sizeof(want));
    std::memcpy(&got, &out, sizeof(got));
    EXPECT_EQ(got, want);
  }
}

TEST(CodecTest, TruncationAtEveryBoundaryIsAnError) {
  const Sample saved = FullSample();
  Encoder enc;
  Sample::Fields(enc, saved);
  // Every proper prefix must fail with a Status, never crash, and the
  // first error must stick through the reads after it.
  for (size_t cut = 0; cut < enc.size(); ++cut) {
    Decoder dec(enc.buffer().data(), cut);
    Sample restored;
    Sample::Fields(dec, restored);
    EXPECT_FALSE(dec.ok()) << "prefix of " << cut << " bytes";
    EXPECT_EQ(dec.status().code(), StatusCode::kOutOfRange);
    EXPECT_EQ(dec.ExpectEnd().code(), StatusCode::kOutOfRange);
  }
}

TEST(CodecTest, ReadsAfterTheFirstErrorAreNoOps) {
  Encoder enc;
  enc.U8(uint8_t{2});  // Not a bool.
  enc.U32(7u);
  Decoder dec(enc.buffer().data(), enc.size());
  bool flag = true;
  uint32_t after = 99;
  dec.Bool(flag);
  dec.U32(after);
  EXPECT_EQ(dec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(flag);       // The corrupt read left its field alone...
  EXPECT_EQ(after, 99u);   // ...and so did every read after it.
  EXPECT_EQ(dec.remaining(), 4u);
}

TEST(CodecTest, ReadLengthRejectsCountsBeyondTheBuffer) {
  // A corrupt length prefix must fail in the decoder, not as an OOM in
  // the vector resize it was destined for.
  Encoder enc;
  enc.Length(std::numeric_limits<uint64_t>::max());
  Decoder dec(enc.buffer().data(), enc.size());
  uint64_t length = 0;
  dec.Length(length);
  EXPECT_EQ(dec.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(length, 0u);

  std::vector<uint32_t> ids = {1, 2};
  Decoder seq(enc.buffer().data(), enc.size());
  seq.Seq(ids, [&seq](uint32_t& id) { seq.U32(id); });
  EXPECT_EQ(seq.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ids.size(), 2u);
}

TEST(CodecTest, CorruptBoolByteIsAnError) {
  const uint8_t byte = 2;
  Decoder dec(&byte, 1);
  bool out = false;
  dec.Bool(out);
  EXPECT_EQ(dec.status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecTest, TrailingBytesAreAnError) {
  Encoder enc;
  enc.U32(1u);
  enc.U8(uint8_t{0});
  Decoder dec(enc.buffer().data(), enc.size());
  uint32_t v = 0;
  dec.U32(v);
  ASSERT_TRUE(dec.ok());
  EXPECT_FALSE(dec.ExpectEnd().ok());
}

}  // namespace
}  // namespace cloudcache::persist
