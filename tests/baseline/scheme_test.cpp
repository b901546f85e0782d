#include "src/baseline/scheme.h"

#include <gtest/gtest.h>

#include "src/baseline/bypass_yield.h"
#include "src/sim/experiment.h"
#include "tests/testing/fixtures.h"

namespace cloudcache {
namespace {

class SchemeTest : public ::testing::Test {
 protected:
  SchemeTest()
      : catalog_(testing::MakeTinyCatalog()),
        prices_(testing::MakeRoundPrices()) {
    const ColumnId date = *catalog_.FindColumn("fact.f_date");
    const ColumnId value = *catalog_.FindColumn("fact.f_value");
    indexes_ = {IndexKey(catalog_, {date}),
                IndexKey(catalog_, {date, value})};
  }

  Catalog catalog_;
  PriceList prices_;
  std::vector<StructureKey> indexes_;
};

TEST_F(SchemeTest, FactoryProducesAllFourSchemes) {
  for (SchemeKind kind :
       {SchemeKind::kBypassYield, SchemeKind::kEconCol,
        SchemeKind::kEconCheap, SchemeKind::kEconFast}) {
    ExperimentConfig config;
    config.scheme = kind;
    config.decision_prices = prices_;
    std::unique_ptr<Scheme> scheme =
        MakeExperimentScheme(catalog_, indexes_, config);
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->name(), SchemeKindToString(kind));
  }
}

TEST_F(SchemeTest, EconColConfigDisablesIndexesAndParallelism) {
  const EconScheme::Config config = EconScheme::EconColConfig();
  EXPECT_FALSE(config.enumerator.allow_indexes);
  EXPECT_FALSE(config.enumerator.allow_parallel);
  EXPECT_EQ(config.economy.selection, PlanSelection::kCheapest);
}

TEST_F(SchemeTest, EconFastSelectsFastest) {
  EXPECT_EQ(EconScheme::EconFastConfig().economy.selection,
            PlanSelection::kFastest);
  EXPECT_EQ(EconScheme::EconCheapConfig().economy.selection,
            PlanSelection::kCheapest);
}

TEST_F(SchemeTest, EconSchemeServesQueries) {
  EconScheme scheme(&catalog_, &prices_, indexes_,
                    EconScheme::EconCheapConfig());
  const Query q = testing::MakeTinyQuery(catalog_);
  const ServedQuery served = scheme.OnQuery(q, 0.0);
  EXPECT_TRUE(served.served);
  EXPECT_TRUE(served.has_budget_case);
  EXPECT_GT(served.execution.time_seconds, 0.0);
  EXPECT_GT(served.payment.micros(), 0);
}

TEST_F(SchemeTest, EconSchemeCreditMovesWithPayments) {
  EconScheme scheme(&catalog_, &prices_, indexes_,
                    EconScheme::EconCheapConfig());
  const Money before = scheme.credit();
  scheme.OnQuery(testing::MakeTinyQuery(catalog_), 0.0);
  EXPECT_GT(scheme.credit(), before);
}

TEST_F(SchemeTest, ChargeExpenditureDebitsAccount) {
  EconScheme scheme(&catalog_, &prices_, indexes_,
                    EconScheme::EconCheapConfig());
  const Money before = scheme.credit();
  scheme.ChargeExpenditure(Money::FromDollars(1), 1.0);
  EXPECT_EQ(scheme.credit(), before - Money::FromDollars(1));
}

TEST_F(SchemeTest, BypassSchemeIgnoresExpenditure) {
  BypassYieldScheme scheme(&catalog_, {});
  scheme.ChargeExpenditure(Money::FromDollars(1), 1.0);  // No-op.
  EXPECT_TRUE(scheme.credit().IsZero());
}

TEST_F(SchemeTest, DeterministicForFixedSeed) {
  auto run = [&](uint64_t seed) {
    EconScheme::Config config = EconScheme::EconCheapConfig();
    config.seed = seed;
    EconScheme scheme(&catalog_, &prices_, indexes_, std::move(config));
    Money total;
    for (int i = 0; i < 20; ++i) {
      total +=
          scheme.OnQuery(testing::MakeTinyQuery(catalog_, 0.05, i), i)
              .payment;
    }
    return total;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // Budget jitter differs.
}

TEST_F(SchemeTest, BudgetModelShapes) {
  Rng rng(1);
  for (auto shape :
       {BudgetModelOptions::Shape::kStep, BudgetModelOptions::Shape::kLinear,
        BudgetModelOptions::Shape::kConvex,
        BudgetModelOptions::Shape::kConcave}) {
    BudgetModelOptions options;
    options.shape = shape;
    options.jitter = 0.0;
    options.price_multiplier = 2.0;
    options.tmax_multiplier = 3.0;
    BudgetModel model(options);
    BudgetScratch scratch;
    const BudgetFunction& budget =
        model.MakeInto(Money::FromDollars(10), 4.0, rng, &scratch);
    EXPECT_DOUBLE_EQ(budget.t_max(), 12.0);
    // Non-increasing by construction.
    EXPECT_TRUE(budget.ValidateMonotone().ok());
    // Early values reflect the doubled reference price.
    EXPECT_GT(budget.At(0.01), Money::FromDollars(19.9));
  }
}

TEST_F(SchemeTest, BudgetJitterStraddlesReference) {
  BudgetModelOptions options;
  options.price_multiplier = 1.0;
  options.jitter = 0.3;
  BudgetModel model(options);
  Rng rng(5);
  BudgetScratch scratch;
  int below = 0, above = 0;
  for (int i = 0; i < 200; ++i) {
    const BudgetFunction& budget =
        model.MakeInto(Money::FromDollars(10), 1.0, rng, &scratch);
    (budget.At(0.5) < Money::FromDollars(10) ? below : above)++;
  }
  EXPECT_GT(below, 50);
  EXPECT_GT(above, 50);
}

TEST_F(SchemeTest, SchemeKindNames) {
  EXPECT_STREQ(SchemeKindToString(SchemeKind::kBypassYield), "bypass");
  EXPECT_STREQ(SchemeKindToString(SchemeKind::kEconCol), "econ-col");
  EXPECT_STREQ(SchemeKindToString(SchemeKind::kEconCheap), "econ-cheap");
  EXPECT_STREQ(SchemeKindToString(SchemeKind::kEconFast), "econ-fast");
}

TEST_F(SchemeTest, EconColNeverUsesIndexesOrExtraNodes) {
  EconScheme scheme(&catalog_, &prices_, indexes_,
                    EconScheme::EconColConfig());
  for (int i = 0; i < 50; ++i) {
    const ServedQuery served =
        scheme.OnQuery(testing::MakeTinyQuery(catalog_, 0.2, i), i);
    if (served.served) {
      EXPECT_NE(served.spec.access, PlanSpec::Access::kCacheIndex);
      EXPECT_EQ(served.spec.cpu_nodes, 1u);
    }
  }
  EXPECT_EQ(scheme.cache().extra_cpu_nodes(), 0u);
  EXPECT_TRUE(
      scheme.cache().ResidentsOfType(StructureType::kIndex).empty());
}

TEST_F(SchemeTest, TenantBudgetStreamsAreIndependentOfInterleaving) {
  // With per-tenant budget streams, a tenant's k-th query draws the same
  // budget jitter regardless of how the other tenants' queries interleave
  // — serve tenant 1's queries with and without tenant 0 traffic mixed in
  // and the payments for tenant 1 must match query for query.
  EconScheme::Config config = EconScheme::EconCheapConfig();
  config.tenants = 2;
  config.seed = 11;
  // Generous step budgets keep every query in case B, where the payment
  // IS the drawn budget amount (backend quote x jittered multiplier) —
  // a direct readout of the tenant's jitter stream that cache-state
  // drift between the two runs cannot perturb.
  config.budget.price_multiplier = 2.0;

  auto payments_for_tenant1 = [&](bool interleave) {
    EconScheme scheme(&catalog_, &prices_, indexes_, config);
    std::vector<int64_t> payments;
    double now = 0;
    for (uint64_t i = 0; i < 20; ++i) {
      if (interleave) {
        Query noise = testing::MakeTinyQuery(catalog_, 0.01, 100 + i);
        noise.tenant_id = 0;
        scheme.OnQuery(noise, now);
        now += 1.0;
      }
      Query q = testing::MakeTinyQuery(catalog_, 0.01, i);
      q.tenant_id = 1;
      payments.push_back(scheme.OnQuery(q, now).payment.micros());
      now += 1.0;
    }
    return payments;
  };
  EXPECT_EQ(payments_for_tenant1(false), payments_for_tenant1(true));
}

TEST_F(SchemeTest, TenantZeroBudgetStreamMatchesClassicUser) {
  // Tenant 0 of a multi-tenant scheme reuses the config seed, so a pure
  // tenant-0 query sequence replays the classic single-user scheme
  // exactly — budgets, plans, and payments.
  EconScheme::Config classic = EconScheme::EconCheapConfig();
  classic.seed = 11;
  EconScheme::Config tenancy = classic;
  tenancy.tenants = 2;

  EconScheme a(&catalog_, &prices_, indexes_, classic);
  EconScheme b(&catalog_, &prices_, indexes_, tenancy);
  for (uint64_t i = 0; i < 20; ++i) {
    const Query q = testing::MakeTinyQuery(catalog_, 0.01, i);
    const ServedQuery sa = a.OnQuery(q, static_cast<double>(i));
    const ServedQuery sb = b.OnQuery(q, static_cast<double>(i));
    EXPECT_EQ(sa.payment.micros(), sb.payment.micros());
    EXPECT_EQ(sa.profit.micros(), sb.profit.micros());
  }
}

TEST_F(SchemeTest, ProvisionedSingleTenantMatchesClassicScheme) {
  // tenants = 1 provisions identity machinery (tenant rng, attribution
  // ledger) but must not change a single decision or payment vs the
  // classic unprovisioned scheme: tenant 0's jitter stream is seeded with
  // the config seed either way.
  EconScheme::Config classic = EconScheme::EconCheapConfig();
  classic.seed = 11;
  EconScheme::Config provisioned = classic;
  provisioned.tenants = 1;

  EconScheme a(&catalog_, &prices_, indexes_, classic);
  EconScheme b(&catalog_, &prices_, indexes_, provisioned);
  for (uint64_t i = 0; i < 20; ++i) {
    const Query q = testing::MakeTinyQuery(catalog_, 0.01, i);
    const ServedQuery sa = a.OnQuery(q, static_cast<double>(i));
    const ServedQuery sb = b.OnQuery(q, static_cast<double>(i));
    EXPECT_EQ(sa.payment.micros(), sb.payment.micros());
    EXPECT_EQ(sa.profit.micros(), sb.profit.micros());
  }
  // Attribution only exists on the provisioned scheme, and its sole
  // tenant owns the whole ledger.
  EXPECT_EQ(a.TenantRegret(0).micros(), 0);
  EXPECT_EQ(b.TenantRegret(0).micros(),
            b.engine().regret().Total().micros());
}

TEST_F(SchemeTest, TenantRegretExposedThroughSchemeInterface) {
  EconScheme::Config config = EconScheme::EconCheapConfig();
  config.tenants = 2;
  config.economy.conservative_provider = false;
  config.economy.initial_credit = Money::FromDollars(2);
  config.economy.amortization_horizon = 100;
  config.economy.regret_fraction_a = 0.001;
  config.economy.model_build_latency = false;
  EconScheme scheme(&catalog_, &prices_, indexes_, config);

  for (uint64_t i = 0; i < 30; ++i) {
    Query q = testing::MakeTinyQuery(catalog_, 0.2, i);
    q.tenant_id = static_cast<uint32_t>(i % 2);
    scheme.OnQuery(q, static_cast<double>(i) * 10.0);
  }
  const Money total = scheme.engine().regret().Total();
  EXPECT_EQ((scheme.TenantRegret(0) + scheme.TenantRegret(1)).micros(),
            total.micros());

  // The base interface keeps non-economy schemes at zero.
  BypassYieldScheme bypass(&catalog_, {});
  EXPECT_EQ(bypass.TenantRegret(0).micros(), 0);
}

}  // namespace
}  // namespace cloudcache
