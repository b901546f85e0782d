#include "src/econ/budget.h"

#include <gtest/gtest.h>

#include "tests/testing/budget_monotone.h"

namespace cloudcache {
namespace {

TEST(StepBudgetTest, ConstantOverSupport) {
  const BudgetFunction budget{BudgetShape::kStep, Money::FromDollars(5),
                              10.0};
  EXPECT_EQ(budget.At(0.001), Money::FromDollars(5));
  EXPECT_EQ(budget.At(5.0), Money::FromDollars(5));
  EXPECT_EQ(budget.At(10.0), Money::FromDollars(5));
}

TEST(StepBudgetTest, ZeroOutsideSupport) {
  const BudgetFunction budget{BudgetShape::kStep, Money::FromDollars(5),
                              10.0};
  EXPECT_TRUE(budget.At(0.0).IsZero());
  EXPECT_TRUE(budget.At(-1.0).IsZero());
  EXPECT_TRUE(budget.At(10.0001).IsZero());
}

TEST(LinearBudgetTest, DescendsToZero) {
  const BudgetFunction budget{BudgetShape::kLinear, Money::FromDollars(10),
                              10.0};
  EXPECT_EQ(budget.At(5.0), Money::FromDollars(5));
  EXPECT_EQ(budget.At(10.0), Money());
  EXPECT_GT(budget.At(1.0), budget.At(9.0));
}

TEST(ConvexBudgetTest, DropsFastThenFlattens) {
  const BudgetFunction budget{BudgetShape::kConvex, Money::FromDollars(100),
                              10.0};
  // Convex: value at midpoint below the linear chord (50).
  EXPECT_LT(budget.At(5.0), Money::FromDollars(50));
  EXPECT_EQ(budget.At(5.0), Money::FromDollars(25));
}

TEST(ConcaveBudgetTest, StaysHighThenPlunges) {
  const BudgetFunction budget{BudgetShape::kConcave, Money::FromDollars(100),
                              10.0};
  // Concave: value at midpoint above the linear chord.
  EXPECT_GT(budget.At(5.0), Money::FromDollars(50));
  EXPECT_EQ(budget.At(5.0), Money::FromDollars(75));
}

TEST(BudgetShapeTest, AllShapesAgreeAtExtremes) {
  const Money amount = Money::FromDollars(10);
  const BudgetFunction step{BudgetShape::kStep, amount, 10.0};
  const BudgetFunction linear{BudgetShape::kLinear, amount, 10.0};
  const BudgetFunction convex{BudgetShape::kConvex, amount, 10.0};
  const BudgetFunction concave{BudgetShape::kConcave, amount, 10.0};
  // Near t=0 all shapes approach the full amount (step exactly).
  EXPECT_EQ(step.At(1e-9), amount);
  EXPECT_GT(linear.At(1e-6), amount * 0.999);
  EXPECT_GT(convex.At(1e-6), amount * 0.999);
  EXPECT_GT(concave.At(1e-6), amount * 0.999);
  // Beyond t_max all are zero.
  for (const BudgetFunction& b : {step, linear, convex, concave}) {
    EXPECT_TRUE(b.At(11.0).IsZero());
  }
}

TEST(BudgetValidateTest, MonotoneShapesPass) {
  for (BudgetShape shape : {BudgetShape::kStep, BudgetShape::kLinear,
                            BudgetShape::kConvex, BudgetShape::kConcave}) {
    const BudgetFunction budget{shape, Money::FromDollars(1), 5.0};
    EXPECT_TRUE(testing::ValidateMonotone(budget).ok());
  }
}

TEST(BudgetValidateTest, RejectsTooFewSamples) {
  const BudgetFunction step{BudgetShape::kStep, Money::FromDollars(1), 5.0};
  EXPECT_FALSE(testing::ValidateMonotone(step, 1).ok());
}

TEST(BudgetValidateTest, DetectsIncreasingShape) {
  // The paper allows arbitrary user shapes but expects descent; the
  // validator flags an ascending one.
  const auto ascending = [](double t) {
    return t <= 1.0 ? Money::FromDollars(1) : Money::FromDollars(10);
  };
  EXPECT_FALSE(testing::ValidateMonotone(ascending, 5.0).ok());
}

}  // namespace
}  // namespace cloudcache
