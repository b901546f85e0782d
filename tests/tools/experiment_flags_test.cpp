// The shared flag surface of cloudcache_sim, cloudcached and loadgen: a
// malformed or out-of-range numeric value must be a usage error (exit 2
// with a message), never an uncaught exception, a CHECK abort, or a
// silently truncated or wrapped number.

#include "tools/experiment_flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace cloudcache {
namespace tools {
namespace {

FlagParse Parse(const std::string& arg, ExperimentFlags* flags) {
  return ParseExperimentFlag(arg.c_str(), flags);
}

TEST(ExperimentFlagsTest, MalformedNumbersAreParseErrors) {
  for (const char* arg :
       {"--queries=abc", "--queries=100x", "--queries=-5", "--queries=",
        "--queries= 5", "--seed=1.5", "--seed=18446744073709551616",
        "--scale-tb=abc", "--scale-tb=1.0tb", "--interarrival=nan",
        "--interarrival=inf", "--regret-a=", "--horizon=12x",
        "--horizon=9223372036854775808", "--tenants=4294967296",
        "--nodes=-1", "--max-nodes=2.5", "--credit=$5",
        "--node-rent-multiplier=x"}) {
    ExperimentFlags flags;
    const ExperimentFlags defaults;
    EXPECT_EQ(Parse(arg, &flags), FlagParse::kError) << arg;
    // A rejected value leaves the field as it was.
    EXPECT_EQ(flags.queries, defaults.queries) << arg;
    EXPECT_EQ(flags.seed, defaults.seed) << arg;
  }
}

TEST(ExperimentFlagsTest, WellFormedNumbersParseWhole) {
  ExperimentFlags flags;
  for (const char* arg :
       {"--queries=100", "--seed=18446744073709551615", "--scale-tb=0.05",
        "--interarrival=1e1", "--regret-a=0.5", "--horizon=-1",
        "--tenants=4", "--nodes=2", "--max-nodes=3", "--credit=-20"}) {
    EXPECT_EQ(Parse(arg, &flags), FlagParse::kConsumed) << arg;
  }
  EXPECT_EQ(flags.queries, 100u);
  EXPECT_EQ(flags.seed, UINT64_MAX);
  EXPECT_EQ(flags.scale_tb, 0.05);
  EXPECT_EQ(flags.interarrival, 10.0);
  EXPECT_TRUE(flags.interarrival_set);
  EXPECT_EQ(flags.regret_a, 0.5);
  EXPECT_EQ(flags.horizon, -1);
  EXPECT_EQ(flags.tenants, 4u);
  EXPECT_EQ(flags.nodes, 2u);
  EXPECT_EQ(flags.max_nodes, 3u);
  EXPECT_EQ(flags.initial_credit, -20.0);
  EXPECT_EQ(Parse("--not-a-flag=1", &flags), FlagParse::kNotMine);
}

TEST(ExperimentFlagsTest, NumbersMustFitTheirField) {
  uint16_t port = 7;
  EXPECT_FALSE(ParseNumber("70000", &port));
  EXPECT_FALSE(ParseNumber("-1", &port));
  EXPECT_EQ(port, 7);
  EXPECT_TRUE(ParseNumber("65535", &port));
  EXPECT_EQ(port, 65535);
  int32_t signed_port = 0;
  EXPECT_TRUE(ParseNumber("-1", &signed_port));
  EXPECT_EQ(signed_port, -1);
  EXPECT_FALSE(ParseNumber("2147483648", &signed_port));
}

TEST(ExperimentFlagsTest, TenantBudgetFieldsAreChecked) {
  ExperimentFlags flags;
  EXPECT_EQ(Parse("--tenant-budget=1:0.5:2", &flags), FlagParse::kConsumed);
  ASSERT_EQ(flags.tenant_budgets.size(), 1u);
  EXPECT_EQ(flags.tenant_budgets[0].tenant, 1u);
  EXPECT_EQ(flags.tenant_budgets[0].price_scale, 0.5);
  EXPECT_EQ(flags.tenant_budgets[0].tmax_scale, 2.0);
  for (const char* arg :
       {"--tenant-budget=x:1", "--tenant-budget=-1:1", "--tenant-budget=:1",
        "--tenant-budget=1:", "--tenant-budget=1:0.5:", "--tenant-budget=1"}) {
    EXPECT_EQ(Parse(arg, &flags), FlagParse::kError) << arg;
  }
  EXPECT_EQ(flags.tenant_budgets.size(), 1u);
}

TEST(ExperimentFlagsTest, ValidateRejectsValuesTheRunWouldAbortOn) {
  EXPECT_TRUE(ValidateExperimentFlags(ExperimentFlags()).ok());
  for (const char* arg :
       {"--interarrival=0", "--interarrival=-1", "--scale-tb=0",
        "--scale-tb=-2", "--regret-a=-1", "--regret-a=0", "--regret-a=1",
        "--horizon=-1", "--horizon=0", "--tenants=0", "--nodes=0",
        "--admission-ratio=0", "--node-rent-multiplier=0"}) {
    ExperimentFlags flags;
    ASSERT_EQ(Parse(arg, &flags), FlagParse::kConsumed) << arg;
    const Status valid = ValidateExperimentFlags(flags);
    EXPECT_EQ(valid.code(), StatusCode::kInvalidArgument) << arg;
  }
}

}  // namespace
}  // namespace tools
}  // namespace cloudcache
