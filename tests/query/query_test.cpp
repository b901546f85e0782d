#include "src/query/query.h"

#include <gtest/gtest.h>

#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

TEST(QueryTest, CombinedSelectivityIsProduct) {
  const Catalog catalog = testing::MakeTinyCatalog();
  const Query q = testing::MakeTinyQuery(catalog, 0.02);
  EXPECT_NEAR(q.CombinedSelectivity(), 0.02 * 0.5, 1e-12);
}

TEST(QueryTest, NoPredicatesMeansFullSelectivity) {
  Query q;
  EXPECT_EQ(q.CombinedSelectivity(), 1.0);
}

TEST(QueryTest, AccessedColumnsDeduplicated) {
  const Catalog catalog = testing::MakeTinyCatalog();
  const Query q = testing::MakeTinyQuery(catalog);
  // Outputs: f_key, f_value. Predicates: f_date, f_value. f_value appears
  // in both and must be deduped.
  const std::vector<ColumnId> accessed = q.AccessedColumns();
  EXPECT_EQ(accessed.size(), 3u);
  EXPECT_TRUE(std::is_sorted(accessed.begin(), accessed.end()));
}

TEST(QueryTest, AccessedColumnsMemoRevalidatesOnMutation) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog);
  const std::vector<ColumnId> before = q.AccessedColumns();  // Primes memo.

  // In-place swap that keeps every count identical: the memo must notice.
  const ColumnId flag = *catalog.FindColumn("fact.f_flag");
  ASSERT_NE(q.output_columns[0], flag);
  q.output_columns[0] = flag;
  const std::vector<ColumnId> after = q.AccessedColumns();
  EXPECT_NE(before, after);
  EXPECT_TRUE(std::find(after.begin(), after.end(), flag) != after.end());

  // Growing the predicate list revalidates too.
  Predicate extra;
  extra.column = *catalog.FindColumn("fact.f_key");
  q.predicates.push_back(extra);
  EXPECT_EQ(q.AccessedColumns().size(), 4u);
}

TEST(QueryTest, DeriveResultShape) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog, 0.01);
  // 1e6 rows * 0.01 * 0.5 = 5000 rows, 16 bytes per output row.
  EXPECT_EQ(q.result_rows, 5000u);
  EXPECT_EQ(q.result_bytes, 5000u * 16);
}

TEST(QueryTest, DeriveResultShapeWithLimit) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog, 0.01);
  DeriveResultShape(catalog, 0.1, &q);
  EXPECT_EQ(q.result_rows, 500u);
}

TEST(QueryTest, ResultRowsNeverZero) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog, 1e-9);
  DeriveResultShape(catalog, 1e-9, &q);
  EXPECT_GE(q.result_rows, 1u);
}

TEST(QueryTest, ResultRowsCappedAtTable) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog, 1.0);
  q.predicates.clear();
  DeriveResultShape(catalog, 1.0, &q);
  EXPECT_EQ(q.result_rows, 1'000'000u);
}

TEST(QueryTest, ValidateAcceptsWellFormed) {
  const Catalog catalog = testing::MakeTinyCatalog();
  EXPECT_TRUE(testing::MakeTinyQuery(catalog).Validate(catalog).ok());
}

TEST(QueryTest, ValidateRejectsBadTable) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog);
  q.table = 99;
  EXPECT_EQ(q.Validate(catalog).code(), StatusCode::kOutOfRange);
}

TEST(QueryTest, ValidateRejectsCrossTableColumn) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog);
  q.output_columns.push_back(*catalog.FindColumn("dim.d_attr"));
  EXPECT_EQ(q.Validate(catalog).code(), StatusCode::kInvalidArgument);
}

TEST(QueryTest, ValidateRejectsNoOutputs) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog);
  q.output_columns.clear();
  EXPECT_FALSE(q.Validate(catalog).ok());
}

TEST(QueryTest, ValidateRejectsBadSelectivity) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog);
  q.predicates[0].selectivity = 0.0;
  EXPECT_FALSE(q.Validate(catalog).ok());
  q.predicates[0].selectivity = 1.5;
  EXPECT_FALSE(q.Validate(catalog).ok());
}

TEST(QueryTest, ValidateRejectsBadMultipliers) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog);
  q.cpu_multiplier = 0.5;
  EXPECT_FALSE(q.Validate(catalog).ok());
  q.cpu_multiplier = 1.0;
  q.parallel_fraction = 1.5;
  EXPECT_FALSE(q.Validate(catalog).ok());
}

TEST(QueryTest, ValidateRejectsOversizedResult) {
  const Catalog catalog = testing::MakeTinyCatalog();
  Query q = testing::MakeTinyQuery(catalog);
  q.result_rows = 2'000'000;
  EXPECT_FALSE(q.Validate(catalog).ok());
}

}  // namespace
}  // namespace cloudcache
