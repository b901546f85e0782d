#include "src/econ/account.h"

#include <gtest/gtest.h>

namespace cloudcache {
namespace {

TEST(CloudAccountTest, StartsAtInitialCredit) {
  CloudAccount account(Money::FromDollars(10));
  EXPECT_EQ(account.credit(), Money::FromDollars(10));
  EXPECT_EQ(account.initial_credit(), Money::FromDollars(10));
  EXPECT_TRUE(account.total_revenue().IsZero());
}

TEST(CloudAccountTest, RevenueIncreasesCredit) {
  CloudAccount account{Money{}};
  account.DepositRevenue(Money::FromDollars(3));
  account.DepositRevenue(Money::FromDollars(2));
  EXPECT_EQ(account.credit(), Money::FromDollars(5));
  EXPECT_EQ(account.total_revenue(), Money::FromDollars(5));
}

TEST(CloudAccountTest, ExpenditureCanOverdraw) {
  CloudAccount account(Money::FromDollars(1));
  account.ChargeExpenditure(Money::FromDollars(4));
  EXPECT_EQ(account.credit(), Money::FromDollars(-3));
  EXPECT_EQ(account.total_expenditure(), Money::FromDollars(4));
}

TEST(CloudAccountTest, InvestmentRefusesOverdraft) {
  CloudAccount account(Money::FromDollars(5));
  EXPECT_EQ(account.WithdrawInvestment(Money::FromDollars(6)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(account.credit(), Money::FromDollars(5));
  EXPECT_TRUE(account.WithdrawInvestment(Money::FromDollars(5)).ok());
  EXPECT_TRUE(account.credit().IsZero());
  EXPECT_EQ(account.total_investment(), Money::FromDollars(5));
}

TEST(CloudAccountTest, BooksBalance) {
  CloudAccount account(Money::FromDollars(100));
  account.DepositRevenue(Money::FromDollars(37));
  account.ChargeExpenditure(Money::FromDollars(12));
  ASSERT_TRUE(account.WithdrawInvestment(Money::FromDollars(25)).ok());
  // credit == initial + revenue - expenditure - investment.
  EXPECT_EQ(account.credit(), account.initial_credit() +
                                  account.total_revenue() -
                                  account.total_expenditure() -
                                  account.total_investment());
  EXPECT_EQ(account.credit(), Money::FromDollars(100 + 37 - 12 - 25));
}

}  // namespace
}  // namespace cloudcache
