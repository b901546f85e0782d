#include "src/catalog/schema.h"

#include <gtest/gtest.h>

#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

TEST(SchemaTest, TinyCatalogShape) {
  const Catalog catalog = testing::MakeTinyCatalog();
  EXPECT_EQ(catalog.num_tables(), 2u);
  EXPECT_EQ(catalog.num_columns(), 6u);
}

TEST(SchemaTest, DenseIdsAssignedInOrder) {
  const Catalog catalog = testing::MakeTinyCatalog();
  EXPECT_EQ(catalog.column(0).name, "f_key");
  EXPECT_EQ(catalog.column(3).name, "f_flag");
  EXPECT_EQ(catalog.column(4).name, "d_key");
  EXPECT_EQ(catalog.column(4).table_id, 1u);
  EXPECT_EQ(catalog.column(0).table_id, 0u);
  for (ColumnId id = 0; id < catalog.num_columns(); ++id) {
    EXPECT_EQ(catalog.column(id).column_id, id);
  }
}

TEST(SchemaTest, FindTable) {
  const Catalog catalog = testing::MakeTinyCatalog();
  ASSERT_TRUE(catalog.FindTable("fact").ok());
  EXPECT_EQ(*catalog.FindTable("fact"), 0u);
  EXPECT_EQ(*catalog.FindTable("dim"), 1u);
  EXPECT_EQ(catalog.FindTable("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaTest, FindColumnQualified) {
  const Catalog catalog = testing::MakeTinyCatalog();
  ASSERT_TRUE(catalog.FindColumn("dim.d_attr").ok());
  EXPECT_EQ(catalog.column(*catalog.FindColumn("dim.d_attr")).name,
            "d_attr");
  EXPECT_EQ(catalog.FindColumn("dim.nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.FindColumn("nope.d_attr").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.FindColumn("unqualified").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ColumnBytes) {
  const Catalog catalog = testing::MakeTinyCatalog();
  EXPECT_EQ(catalog.ColumnBytes(*catalog.FindColumn("fact.f_key")),
            8u * 1'000'000);
  EXPECT_EQ(catalog.ColumnBytes(*catalog.FindColumn("dim.d_attr")),
            4u * 1'000);
}

TEST(SchemaTest, TotalBytesIsSumOfTables) {
  const Catalog catalog = testing::MakeTinyCatalog();
  const uint64_t expected = 4u * 8 * 1'000'000 + (8 + 4) * 1'000;
  EXPECT_EQ(catalog.TotalBytes(), expected);
  EXPECT_EQ(catalog.table(0).TotalBytes() + catalog.table(1).TotalBytes(),
            expected);
}

TEST(SchemaTest, RowWidth) {
  const Catalog catalog = testing::MakeTinyCatalog();
  EXPECT_EQ(catalog.table(0).RowWidth(), 32u);
  EXPECT_EQ(catalog.table(1).RowWidth(), 12u);
}

TEST(SchemaTest, DuplicateTableRejected) {
  Catalog catalog = testing::MakeTinyCatalog();
  Table dup;
  dup.name = "fact";
  Column c;
  c.name = "x";
  c.width_bytes = 8;
  dup.columns.push_back(c);
  EXPECT_EQ(catalog.AddTable(std::move(dup)).code(),
            StatusCode::kAlreadyExists);
}

TEST(SchemaTest, EmptyTableRejected) {
  Catalog catalog;
  Table empty;
  empty.name = "empty";
  EXPECT_EQ(catalog.AddTable(std::move(empty)).code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ZeroWidthColumnRejected) {
  Catalog catalog;
  Table bad;
  bad.name = "bad";
  Column c;
  c.name = "x";
  c.width_bytes = 0;
  bad.columns.push_back(c);
  EXPECT_EQ(catalog.AddTable(std::move(bad)).code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, BadDistinctFractionRejected) {
  Catalog catalog;
  Table bad;
  bad.name = "bad";
  Column c;
  c.name = "x";
  c.width_bytes = 8;
  c.distinct_fraction = 1.5;
  bad.columns.push_back(c);
  EXPECT_EQ(catalog.AddTable(std::move(bad)).code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, IdsStableAfterAddingTables) {
  Catalog catalog = testing::MakeTinyCatalog();
  const ColumnId before = *catalog.FindColumn("fact.f_value");
  Table extra;
  extra.name = "extra";
  extra.row_count = 10;
  Column c;
  c.name = "e";
  c.width_bytes = 8;
  extra.columns.push_back(c);
  ASSERT_TRUE(catalog.AddTable(std::move(extra)).ok());
  EXPECT_EQ(*catalog.FindColumn("fact.f_value"), before);
  EXPECT_EQ(catalog.column(*catalog.FindColumn("extra.e")).column_id, 6u);
}

TEST(DataTypeTest, NamesAndWidths) {
  EXPECT_EQ(DefaultWidth(DataType::kInt32), 4u);
  EXPECT_EQ(DefaultWidth(DataType::kDate), 4u);
  EXPECT_EQ(DefaultWidth(DataType::kInt64), 8u);
  EXPECT_EQ(DefaultWidth(DataType::kChar), 0u);
}

}  // namespace
}  // namespace cloudcache
