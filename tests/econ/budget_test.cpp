#include "src/econ/budget.h"

#include <gtest/gtest.h>

namespace cloudcache {
namespace {

TEST(StepBudgetTest, ConstantOverSupport) {
  StepBudget budget(Money::FromDollars(5), 10.0);
  EXPECT_EQ(budget.At(0.001), Money::FromDollars(5));
  EXPECT_EQ(budget.At(5.0), Money::FromDollars(5));
  EXPECT_EQ(budget.At(10.0), Money::FromDollars(5));
}

TEST(StepBudgetTest, ZeroOutsideSupport) {
  StepBudget budget(Money::FromDollars(5), 10.0);
  EXPECT_TRUE(budget.At(0.0).IsZero());
  EXPECT_TRUE(budget.At(-1.0).IsZero());
  EXPECT_TRUE(budget.At(10.0001).IsZero());
}

TEST(LinearBudgetTest, DescendsToZero) {
  LinearBudget budget(Money::FromDollars(10), 10.0);
  EXPECT_EQ(budget.At(5.0), Money::FromDollars(5));
  EXPECT_EQ(budget.At(10.0), Money());
  EXPECT_GT(budget.At(1.0), budget.At(9.0));
}

TEST(ConvexBudgetTest, DropsFastThenFlattens) {
  ConvexBudget budget(Money::FromDollars(100), 10.0);
  // Convex: value at midpoint below the linear chord (50).
  EXPECT_LT(budget.At(5.0), Money::FromDollars(50));
  EXPECT_EQ(budget.At(5.0), Money::FromDollars(25));
}

TEST(ConcaveBudgetTest, StaysHighThenPlunges) {
  ConcaveBudget budget(Money::FromDollars(100), 10.0);
  // Concave: value at midpoint above the linear chord.
  EXPECT_GT(budget.At(5.0), Money::FromDollars(50));
  EXPECT_EQ(budget.At(5.0), Money::FromDollars(75));
}

TEST(BudgetShapeTest, AllShapesAgreeAtExtremes) {
  const Money amount = Money::FromDollars(10);
  StepBudget step(amount, 10.0);
  LinearBudget linear(amount, 10.0);
  ConvexBudget convex(amount, 10.0);
  ConcaveBudget concave(amount, 10.0);
  // Near t=0 all shapes approach the full amount (step exactly).
  EXPECT_EQ(step.At(1e-9), amount);
  EXPECT_GT(linear.At(1e-6), amount * 0.999);
  EXPECT_GT(convex.At(1e-6), amount * 0.999);
  EXPECT_GT(concave.At(1e-6), amount * 0.999);
  // Beyond t_max all are zero.
  const std::vector<const BudgetFunction*> all = {&step, &linear, &convex,
                                                  &concave};
  for (const BudgetFunction* b : all) {
    EXPECT_TRUE(b->At(11.0).IsZero());
  }
}

TEST(BudgetValidateTest, MonotoneShapesPass) {
  EXPECT_TRUE(StepBudget(Money::FromDollars(1), 5).ValidateMonotone().ok());
  EXPECT_TRUE(
      LinearBudget(Money::FromDollars(1), 5).ValidateMonotone().ok());
  EXPECT_TRUE(
      ConvexBudget(Money::FromDollars(1), 5).ValidateMonotone().ok());
  EXPECT_TRUE(
      ConcaveBudget(Money::FromDollars(1), 5).ValidateMonotone().ok());
}

TEST(BudgetValidateTest, RejectsTooFewSamples) {
  EXPECT_FALSE(
      StepBudget(Money::FromDollars(1), 5).ValidateMonotone(1).ok());
}

TEST(BudgetValidateTest, DetectsIncreasingShape) {
  // The paper allows arbitrary user shapes but expects descent; the
  // validator flags an ascending one.
  class AscendingBudget : public BudgetFunction {
   public:
    AscendingBudget() : BudgetFunction(5.0) {}

   protected:
    Money Evaluate(double t) const override {
      return t <= 1.0 ? Money::FromDollars(1) : Money::FromDollars(10);
    }
  };
  EXPECT_FALSE(AscendingBudget().ValidateMonotone().ok());
}

}  // namespace
}  // namespace cloudcache
