// Serialize → deserialize == identity, pinned per component: each test
// mutates a component into a mid-run state, snapshots it, restores into a
// freshly constructed twin, and checks the twin is indistinguishable —
// including the forward behavior (next decisions, next draws), which is
// the property crash recovery actually needs.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/cache/maintenance.h"
#include "src/catalog/tpch.h"
#include "src/cluster/elasticity.h"
#include "src/cost/cost_model.h"
#include "src/econ/account.h"
#include "src/econ/amortizer.h"
#include "src/econ/regret.h"
#include "src/persist/codec.h"
#include "src/query/templates.h"
#include "src/sim/experiment.h"
#include "src/structure/structure.h"
#include "src/util/rng.h"
#include "src/workload/generator.h"

namespace cloudcache {
namespace {

using persist::Decoder;
using persist::Encoder;

TEST(RegretLedgerPersistTest, RoundTripPreservesEveryEntry) {
  RegretLedger ledger;
  ledger.Add(3, Money::FromDollars(1.5));
  ledger.Distribute({1, 2, 5}, Money::FromMicros(1'000'001));
  ledger.Add(7, Money::FromMicros(42));
  ledger.Clear(2);

  Encoder enc;
  ledger.SaveState(&enc);
  RegretLedger twin;
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec).ok());
  EXPECT_TRUE(dec.AtEnd());

  EXPECT_EQ(twin.Total().micros(), ledger.Total().micros());
  EXPECT_EQ(twin.size(), ledger.size());
  for (StructureId id = 0; id < 10; ++id) {
    EXPECT_EQ(twin.Get(id).micros(), ledger.Get(id).micros()) << id;
  }
  EXPECT_EQ(twin.NonZeroDescending(), ledger.NonZeroDescending());
}

TEST(RegretLedgerPersistTest, TenantLedgersStillPartitionTheGlobalOne) {
  // The invariant crash recovery must not break: summing the restored
  // tenant ledgers reproduces the restored global ledger, entry by entry.
  RegretLedger global;
  std::vector<RegretLedger> tenants(3);
  const StructureId ids[] = {0, 2, 4, 9};
  Money amounts[] = {Money::FromMicros(101), Money::FromMicros(3'000'000),
                     Money::FromMicros(77), Money::FromMicros(12'345)};
  for (size_t i = 0; i < 4; ++i) {
    global.Add(ids[i], amounts[i]);
    // Split over tenants, exact to the micro-dollar.
    for (size_t t = 0; t < 3; ++t) {
      tenants[t].Add(ids[i],
                     EvenShare(amounts[i], 3, static_cast<int64_t>(t)));
    }
  }

  Encoder enc;
  global.SaveState(&enc);
  for (const RegretLedger& ledger : tenants) ledger.SaveState(&enc);

  RegretLedger global_twin;
  std::vector<RegretLedger> tenant_twins(3);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(global_twin.RestoreState(&dec).ok());
  for (RegretLedger& ledger : tenant_twins) {
    ASSERT_TRUE(ledger.RestoreState(&dec).ok());
  }
  EXPECT_TRUE(dec.AtEnd());

  Money tenant_total;
  for (const RegretLedger& ledger : tenant_twins) {
    tenant_total += ledger.Total();
  }
  EXPECT_EQ(tenant_total.micros(), global_twin.Total().micros());
  for (StructureId id : ids) {
    Money per_entry;
    for (const RegretLedger& ledger : tenant_twins) {
      per_entry += ledger.Get(id);
    }
    EXPECT_EQ(per_entry.micros(), global_twin.Get(id).micros()) << id;
  }
}

TEST(MaintenanceLedgerPersistTest, RoundTripKeepsClocksAndFailureScales) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const PriceList prices = PriceList::AmazonEc2_2009();
  const CostModel model(&catalog, &prices);
  StructureRegistry registry(&catalog);
  const StructureId a = registry.Intern(ColumnKey(catalog, 0));
  const StructureId b = registry.Intern(ColumnKey(catalog, 1));
  const StructureId c = registry.Intern(CpuNodeKey(0));

  MaintenanceLedger ledger(&model, 0.25, true);
  ledger.Register(a, registry.key(a), 10.0, Money::FromDollars(2.0), 1.0);
  ledger.Register(b, registry.key(b), 20.0, Money::FromDollars(5.0), 1.75);
  ledger.Register(c, registry.key(c), 30.0, Money::FromDollars(0.5), 1.0);
  ledger.Pay(a, 500.0, /*cap_seconds=*/100.0);  // Partially repaid clock.

  Encoder enc;
  ledger.SaveState(&enc);
  MaintenanceLedger twin(&model, 0.25, true);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec, registry).ok());
  EXPECT_TRUE(dec.AtEnd());

  for (StructureId id : {a, b, c}) {
    EXPECT_TRUE(twin.IsTracked(id));
    EXPECT_EQ(twin.FailureScale(id), ledger.FailureScale(id)) << id;
    EXPECT_EQ(twin.BuildCostOf(id).micros(), ledger.BuildCostOf(id).micros());
    EXPECT_EQ(twin.Owed(id, 1000.0).micros(), ledger.Owed(id, 1000.0).micros())
        << id;
  }
  // The deadline index is not in the snapshot: restore rebuilds it, so
  // both ledgers name the same due clocks at every time.
  const auto rebuild = [](StructureId) { return Money(); };
  std::vector<StructureId> due;
  std::vector<StructureId> twin_due;
  for (SimTime now : {100.0, 1e5, 1e6, 1e7, 1e8}) {
    ledger.CollectDue(now, 0, rebuild, &due);
    twin.CollectDue(now, 0, rebuild, &twin_due);
    EXPECT_EQ(twin_due, due) << now;
  }
  // Forward behavior: the next payment collects the same amount.
  EXPECT_EQ(twin.Pay(b, 1000.0).micros(), ledger.Pay(b, 1000.0).micros());
}

TEST(MaintenanceLedgerPersistTest, UnknownStructureIdIsRejected) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const PriceList prices = PriceList::AmazonEc2_2009();
  const CostModel model(&catalog, &prices);
  StructureRegistry full(&catalog);
  const StructureId id = full.Intern(ColumnKey(catalog, 3));
  MaintenanceLedger ledger(&model, 0.25, true);
  ledger.Register(id, full.key(id), 1.0, Money::FromDollars(1.0));

  Encoder enc;
  ledger.SaveState(&enc);
  // Restoring against a registry that never interned the structure must
  // fail with a Status: a clock for an unknown id has no footprint.
  StructureRegistry empty(&catalog);
  MaintenanceLedger twin(&model, 0.25, true);
  Decoder dec(enc.buffer().data(), enc.size());
  EXPECT_FALSE(twin.RestoreState(&dec, empty).ok());
}

std::string Hex(const Encoder& enc) {
  std::string hex;
  char byte[3];
  for (uint8_t b : enc.buffer()) {
    std::snprintf(byte, sizeof(byte), "%02x", b);
    hex += byte;
  }
  return hex;
}

/// A TPC-H registry with columns 0-7 at ids 0-7 and CPU node 1 at id 8.
StructureRegistry GoldenRegistry(const Catalog& catalog) {
  StructureRegistry registry(&catalog);
  for (ColumnId c = 0; c < 8; ++c) registry.Intern(ColumnKey(catalog, c));
  registry.Intern(CpuNodeKey(1));
  return registry;
}

// The golden strings below are snapshot format 4's sections for these
// sequences: per-structure sections stay in ascending id order whatever
// container holds them in memory.

TEST(MaintenanceLedgerPersistTest, SectionBytesMatchGolden) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const PriceList prices = PriceList::AmazonEc2_2009();
  const CostModel model(&catalog, &prices);
  const StructureRegistry registry = GoldenRegistry(catalog);
  const StructureId cpu = 8;
  MaintenanceLedger ledger(&model, 0.25, true);
  ledger.Register(6, registry.key(6), 10.0, Money::FromDollars(2.0), 1.0);
  ledger.Register(1, registry.key(1), 20.0, Money(), 1.0);
  ledger.Register(cpu, registry.key(cpu), 30.0, Money::FromDollars(0.5), 1.5);
  ledger.Register(3, registry.key(3), 40.0, Money::FromDollars(1.25), 1.0);
  ledger.Pay(6, 500.0, 100.0);
  ledger.Pay(cpu, 1000.0);
  ledger.Unregister(3, 600.0);
  ledger.Register(0, registry.key(0), 700.0, Money::FromDollars(3.0), 2.0);
  ledger.Pay(1, 800.0, 60.0);
  Encoder enc;
  ledger.SaveState(&enc);
  const std::string golden =
      "0400000000000000"
      "000000000000000000e08540c0c62d00000000000000000000000040"
      "0100000000000000000054400000000000000000000000000000f03f"
      "060000000000000000805b4080841e0000000000000000000000f03f"
      "080000000000000000408f4020a1070000000000000000000000f83f";
  EXPECT_EQ(Hex(enc), golden);

  // A restored twin writes the same bytes.
  MaintenanceLedger twin(&model, 0.25, true);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec, registry).ok());
  Encoder again;
  twin.SaveState(&again);
  EXPECT_EQ(Hex(again), golden);
}

TEST(MaintenanceLedgerPersistTest, RepeatedIdIsRejected) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const PriceList prices = PriceList::AmazonEc2_2009();
  const CostModel model(&catalog, &prices);
  const StructureRegistry registry = GoldenRegistry(catalog);
  Encoder enc;
  enc.Length(2);
  for (int i = 0; i < 2; ++i) {
    enc.U32(5u);
    enc.F64(10.0);
    enc.Money(Money::FromDollars(1.0));
    enc.F64(1.0);
  }
  MaintenanceLedger twin(&model, 0.25, true);
  Decoder dec(enc.buffer().data(), enc.size());
  const Status status = twin.RestoreState(&dec, registry);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("repeats structure id 5"),
            std::string::npos)
      << status.ToString();
}

TEST(AmortizerPersistTest, SectionBytesMatchGolden) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const StructureRegistry registry = GoldenRegistry(catalog);
  Amortizer amortizer(4);
  amortizer.RegisterBuild(5, Money::FromMicros(3'000'001));
  amortizer.RegisterBuild(2, Money::FromMicros(1'500'000));
  amortizer.RegisterBuild(7, Money::FromMicros(700'003));
  amortizer.ChargeShare(5);
  amortizer.ChargeShare(5);
  for (int i = 0; i < 4; ++i) amortizer.ChargeShare(2);  // Fully repaid.
  amortizer.Cancel(7);
  amortizer.RegisterBuild(1, Money::FromMicros(2'000'000));
  amortizer.ChargeShare(1);
  amortizer.RegisterBuild(7, Money::FromMicros(10'000'000));  // Rebuilt.
  Encoder enc;
  amortizer.SaveState(&enc);
  const std::string golden =
      "0300000000000000"
      "0100000080841e00000000000100000000000000"
      "05000000c1c62d00000000000200000000000000"
      "0700000080969800000000000000000000000000";
  EXPECT_EQ(Hex(enc), golden);

  Amortizer twin(4);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec, registry).ok());
  EXPECT_TRUE(dec.AtEnd());
  for (StructureId id = 0; id < 9; ++id) {
    EXPECT_EQ(twin.PendingShare(id), amortizer.PendingShare(id)) << id;
  }
  EXPECT_EQ(twin.Cancel(5), amortizer.Cancel(5));
}

TEST(AmortizerPersistTest, RepeatedOrUnknownIdIsRejected) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const StructureRegistry registry = GoldenRegistry(catalog);
  const auto restore = [&](const std::vector<StructureId>& ids) {
    Encoder enc;
    enc.Length(ids.size());
    for (StructureId id : ids) {
      enc.U32(id);
      enc.Money(Money::FromDollars(1.0));
      enc.I64(int64_t{0});
    }
    Amortizer twin(4);
    Decoder dec(enc.buffer().data(), enc.size());
    return twin.RestoreState(&dec, registry);
  };
  EXPECT_TRUE(restore({3, 1}).ok());
  const Status repeated = restore({3, 1, 3});
  EXPECT_FALSE(repeated.ok());
  EXPECT_NE(repeated.ToString().find("repeats structure id 3"),
            std::string::npos)
      << repeated.ToString();
  EXPECT_FALSE(restore({9}).ok());  // Never interned.
}

TEST(ElasticityControllerPersistTest, StreaksAndCooldownSurviveRestore) {
  ElasticityOptions options;
  options.sustain_windows = 3;
  options.cooldown_windows = 2;
  options.max_nodes = 4;
  ElasticityController controller(options);

  // Two hot windows: regret far above one node's projected rent. The
  // streak is at 2 of 3 — the next hot window rents.
  ElasticityWindow hot;
  hot.standing_regret = Money::FromDollars(100.0);
  hot.projected_rent_dollars = 1.0;
  hot.routed = {50, 50};
  hot.window_queries = 100;
  EXPECT_EQ(controller.Step(hot).decision, ElasticDecision::kHold);
  EXPECT_EQ(controller.Step(hot).decision, ElasticDecision::kHold);

  Encoder enc;
  controller.SaveState(&enc);
  ElasticityController twin(options);
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec).ok());
  EXPECT_TRUE(dec.AtEnd());

  // Both controllers must act identically from here: the third hot window
  // completes the streak and rents...
  EXPECT_EQ(controller.Step(hot).decision, ElasticDecision::kRent);
  EXPECT_EQ(twin.Step(hot).decision, ElasticDecision::kRent);
  // ...and both sit out the same cooldown afterwards.
  for (int window = 0; window < 4; ++window) {
    const ElasticAction a = controller.Step(hot);
    const ElasticAction b = twin.Step(hot);
    EXPECT_EQ(a.decision, b.decision) << "window " << window;
  }
}

TEST(AccountPersistTest, BooksBalanceAfterRestore) {
  CloudAccount account(Money::FromDollars(100.0));
  account.DepositRevenue(Money::FromDollars(3.5));
  account.ChargeExpenditure(Money::FromMicros(123'456));
  ASSERT_TRUE(account.WithdrawInvestment(Money::FromDollars(10.0)).ok());

  Encoder enc;
  account.SaveState(&enc);
  CloudAccount twin(Money::FromDollars(100.0));
  Decoder dec(enc.buffer().data(), enc.size());
  ASSERT_TRUE(twin.RestoreState(&dec).ok());
  EXPECT_TRUE(dec.AtEnd());

  EXPECT_EQ(twin.credit().micros(), account.credit().micros());
  EXPECT_EQ(twin.total_revenue().micros(), account.total_revenue().micros());
  EXPECT_EQ(twin.total_expenditure().micros(),
            account.total_expenditure().micros());
  EXPECT_EQ(twin.total_investment().micros(),
            account.total_investment().micros());
  // The audit identity holds on the restored books.
  EXPECT_EQ(twin.credit().micros(),
            (twin.initial_credit() + twin.total_revenue() -
             twin.total_expenditure() - twin.total_investment())
                .micros());
}

TEST(RngPersistTest, RestoredStreamContinuesExactly) {
  Rng rng(1234);
  for (int i = 0; i < 100; ++i) rng.Next();

  Encoder enc;
  Rng::Fields(enc, rng);
  Rng twin(999);  // Different seed: the restore must overwrite it fully.
  Decoder dec(enc.buffer().data(), enc.size());
  Rng::Fields(dec, twin);
  EXPECT_TRUE(dec.ExpectEnd().ok());

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(twin.Next(), rng.Next()) << "draw " << i;
  }
  // Fork lineage survives too (the retained seed is part of the state).
  EXPECT_EQ(twin.Fork(7).Next(), rng.Fork(7).Next());
}

TEST(WorkloadGeneratorPersistTest, PerTenantStreamsResumeMidFlight) {
  const Catalog catalog = MakeTpchCatalog(10.0);
  const std::vector<QueryTemplate> templates = MakeTpchTemplates();
  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, templates);
  ASSERT_TRUE(resolved.ok());

  // Three tenant streams with distinct seeds/mixes, as the multi-tenant
  // simulator derives them; each is advanced a different distance so the
  // snapshot captures three distinct RNG positions.
  WorkloadOptions base;
  base.seed = 11;
  base.arrival = WorkloadOptions::Arrival::kPoisson;
  TenancyOptions tenancy;
  tenancy.tenants = 3;
  tenancy.traffic_skew = 1.0;
  std::vector<WorkloadGenerator> streams;
  for (uint32_t t = 0; t < 3; ++t) {
    streams.emplace_back(&catalog, *resolved,
                         TenantWorkloadOptions(base, tenancy, t));
    for (uint32_t i = 0; i < 17 * (t + 1); ++i) streams[t].Next();
  }

  Encoder enc;
  for (const WorkloadGenerator& gen : streams) gen.SaveState(&enc);

  std::vector<WorkloadGenerator> twins;
  for (uint32_t t = 0; t < 3; ++t) {
    twins.emplace_back(&catalog, *resolved,
                       TenantWorkloadOptions(base, tenancy, t));
  }
  Decoder dec(enc.buffer().data(), enc.size());
  for (WorkloadGenerator& twin : twins) {
    ASSERT_TRUE(twin.RestoreState(&dec).ok());
  }
  EXPECT_TRUE(dec.AtEnd());

  for (uint32_t t = 0; t < 3; ++t) {
    EXPECT_EQ(twins[t].queries_generated(), streams[t].queries_generated());
    EXPECT_EQ(twins[t].PeekNextArrival(), streams[t].PeekNextArrival());
    for (int i = 0; i < 50; ++i) {
      const Query want = streams[t].Next();
      const Query got = twins[t].Next();
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.template_id, want.template_id);
      EXPECT_EQ(got.arrival_time, want.arrival_time);
      EXPECT_EQ(got.tenant_id, want.tenant_id);
      EXPECT_EQ(got.result_bytes, want.result_bytes);
      ASSERT_EQ(got.predicates.size(), want.predicates.size());
      for (size_t p = 0; p < want.predicates.size(); ++p) {
        EXPECT_EQ(got.predicates[p].selectivity,
                  want.predicates[p].selectivity);
      }
    }
  }
}

}  // namespace
}  // namespace cloudcache
