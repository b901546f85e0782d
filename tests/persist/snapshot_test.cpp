#include "src/persist/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace cloudcache::persist {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

SnapshotWriter MakeTwoSectionWriter(uint64_t config_hash = 0x1234) {
  SnapshotWriter writer(config_hash);
  Encoder* alpha = writer.AddSection("alpha");
  alpha->U64(uint64_t{42});
  alpha->Str("economy");
  Encoder* beta = writer.AddSection("beta");
  beta->F64(2.5);
  return writer;
}

TEST(SnapshotTest, InMemoryRoundTrip) {
  const SnapshotWriter writer = MakeTwoSectionWriter();
  Result<SnapshotReader> reader = SnapshotReader::FromBytes(writer.Serialize());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->config_hash(), 0x1234u);
  EXPECT_TRUE(reader->ExpectConfigHash(0x1234).ok());
  EXPECT_TRUE(reader->Section("alpha").ok());
  EXPECT_TRUE(reader->Section("beta").ok());
  EXPECT_FALSE(reader->Section("gamma").ok());

  Result<Decoder> alpha = reader->Section("alpha");
  ASSERT_TRUE(alpha.ok());
  uint64_t v = 0;
  std::string s;
  alpha->U64(v);
  alpha->Str(s);
  ASSERT_TRUE(alpha->ok());
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s, "economy");
  EXPECT_TRUE(alpha->ExpectEnd().ok());

  Result<Decoder> beta = reader->Section("beta");
  ASSERT_TRUE(beta.ok());
  double d = 0;
  beta->F64(d);
  ASSERT_TRUE(beta->ok());
  EXPECT_EQ(d, 2.5);
}

TEST(SnapshotTest, MissingSectionIsNotFound) {
  Result<SnapshotReader> reader =
      SnapshotReader::FromBytes(MakeTwoSectionWriter().Serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->Section("gamma").status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, FileRoundTripAndAtomicOverwrite) {
  const std::string path = TempPath("snapshot_test.snap");
  ASSERT_TRUE(MakeTwoSectionWriter(7).WriteToFile(path).ok());
  // Overwrite with different contents: the rename must replace wholesale.
  SnapshotWriter second(9);
  second.AddSection("only")->U64(uint64_t{1});
  ASSERT_TRUE(second.WriteToFile(path).ok());
  Result<SnapshotReader> reader = SnapshotReader::FromFile(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->config_hash(), 9u);
  EXPECT_FALSE(reader->Section("alpha").ok());
  EXPECT_TRUE(reader->Section("only").ok());
  // No temp file left behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  Result<SnapshotReader> reader =
      SnapshotReader::FromFile(TempPath("no_such_snapshot.snap"));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, ForeignConfigHashIsRejected) {
  Result<SnapshotReader> reader =
      SnapshotReader::FromBytes(MakeTwoSectionWriter(0x1234).Serialize());
  ASSERT_TRUE(reader.ok());
  const Status status = reader->ExpectConfigHash(0x9999);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // The message names both hashes so the operator can see which side is
  // stale.
  EXPECT_NE(status.message().find("different configuration"),
            std::string::npos)
      << status.ToString();
}

TEST(SnapshotTest, BadMagicIsRejected) {
  std::vector<uint8_t> bytes = MakeTwoSectionWriter().Serialize();
  bytes[0] ^= 0xFF;
  Result<SnapshotReader> reader = SnapshotReader::FromBytes(std::move(bytes));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, VersionSkewIsRejectedCleanly) {
  // A snapshot stamped with an older (v2, or the previous v3) or newer
  // format version must be refused with a descriptive Status — not
  // misparsed by a reader that only speaks the current layout. The
  // version field is the u32 after the magic.
  for (uint32_t skew : {2u, kSnapshotFormatVersion - 1,
                        kSnapshotFormatVersion + 1, 0u, 0xFFu}) {
    std::vector<uint8_t> bytes = MakeTwoSectionWriter().Serialize();
    for (int i = 0; i < 4; ++i) {
      bytes[4 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(skew >> (8 * i));
    }
    Result<SnapshotReader> reader =
        SnapshotReader::FromBytes(std::move(bytes));
    ASSERT_FALSE(reader.ok()) << "version " << skew;
    EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(reader.status().message().find("version"), std::string::npos)
        << reader.status().ToString();
  }
}

TEST(SnapshotTest, PayloadCorruptionFailsTheSectionCrc) {
  const std::vector<uint8_t> good = MakeTwoSectionWriter().Serialize();
  // Flip one bit in the last byte (inside the final section's payload):
  // the per-section CRC must catch it at load time.
  std::vector<uint8_t> bytes = good;
  bytes.back() ^= 0x01;
  Result<SnapshotReader> reader = SnapshotReader::FromBytes(std::move(bytes));
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, TruncationAtEveryByteIsAnError) {
  const std::vector<uint8_t> good = MakeTwoSectionWriter().Serialize();
  for (size_t cut = 0; cut < good.size(); ++cut) {
    std::vector<uint8_t> bytes(good.begin(),
                               good.begin() + static_cast<long>(cut));
    Result<SnapshotReader> reader =
        SnapshotReader::FromBytes(std::move(bytes));
    EXPECT_FALSE(reader.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

}  // namespace
}  // namespace cloudcache::persist
