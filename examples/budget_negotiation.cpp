// Budget negotiation: the three cases of Section IV-C, step by step.
//
// Drives a single EconomyEngine by hand with three hand-crafted users —
// a generous one whose budget covers every offered plan (case B), a
// deadline user whose concave budget collapses before the back-end can
// finish (case A via the time axis), and a pauper below every executable
// offer (case A via the price axis) — and prints the decision, the
// payment, and the regret the cloud recorded. This is the worked example
// of Fig. 2, ending with the investment the accumulated regret triggers.

#include <cstdio>
#include <memory>

#include "src/util/logging.h"
#include "src/catalog/tpch.h"
#include "src/econ/economy.h"
#include "src/query/templates.h"
#include "src/structure/index_advisor.h"
#include "src/util/rng.h"

using namespace cloudcache;

namespace {

void ShowOutcome(const Catalog& catalog, const EconomyEngine& engine,
                 const QueryOutcome& outcome) {
  std::printf("  -> case %s, %s\n",
              BudgetCaseToString(outcome.budget_case),
              outcome.served ? "served" : "declined by user");
  if (outcome.served) {
    const PlanSpec& spec = outcome.chosen.spec;
    const char* access = spec.access == PlanSpec::Access::kBackend
                             ? "backend"
                         : spec.access == PlanSpec::Access::kCacheScan
                             ? "cache-scan"
                             : "cache-index";
    std::printf("     executed %s[%un] t=%.3fs price=%s\n", access,
                spec.cpu_nodes, outcome.chosen.time_seconds,
                outcome.chosen.price.ToString().c_str());
    std::printf("     payment %s, cloud profit %s\n",
                outcome.payment.ToString().c_str(),
                outcome.profit.ToString().c_str());
  }
  const auto regrets = engine.regret().NonZeroDescending();
  std::printf("     regret ledger now holds %zu entries (total %s)\n",
              regrets.size(), engine.regret().Total().ToString().c_str());
  for (size_t i = 0; i < regrets.size() && i < 3; ++i) {
    std::printf("       %s -> %s\n",
                engine.cache()
                    .registry()
                    .key(regrets[i].first)
                    .ToString(catalog)
                    .c_str(),
                regrets[i].second.ToString().c_str());
  }
}

}  // namespace

int main() {
  const Catalog catalog = MakePaperTpchCatalog();
  Result<std::vector<ResolvedTemplate>> resolved =
      ResolveTemplates(catalog, MakeTpchTemplates());
  CLOUDCACHE_CHECK(resolved.ok());

  const PriceList prices = PriceList::AmazonEc2_2009();
  const CostModel model(&catalog, &prices);
  StructureRegistry registry(&catalog);
  EconomyOptions options;
  options.initial_credit = Money::FromDollars(100);
  options.model_build_latency = false;
  options.regret_fraction_a = 0.02;  // Invest within this short demo.
  EconomyEngine engine(&catalog, &registry, &model, EnumeratorOptions{},
                       options);
  engine.SetIndexCandidates(RecommendIndexes(catalog, *resolved, 65));

  // One result-heavy scan query (shipping_scan template).
  Rng rng(99);
  const Query query = InstantiateQuery((*resolved)[1], catalog, rng,
                                       /*template_id=*/1, /*query_id=*/1);
  PlanSpec backend_spec;
  backend_spec.access = PlanSpec::Access::kBackend;
  const ExecutionEstimate quote = model.EstimateExecution(query, backend_spec);
  std::printf(
      "query: shipping_scan, result %.1f MB; back-end quote %s at %.2fs\n\n",
      static_cast<double>(query.result_bytes) / 1e6,
      quote.cost.ToString().c_str(), quote.time_seconds);

  std::puts("[1] generous user: step budget at 3x the back-end quote");
  {
    BudgetFunction budget{BudgetShape::kStep, quote.cost * 3.0,
                          quote.time_seconds * 4};
    ShowOutcome(catalog, engine, engine.OnQuery(query, budget, 0.0));
  }

  std::puts(
      "\n[2] deadline user: concave budget that collapses before the "
      "back-end finishes");
  {
    BudgetFunction budget{BudgetShape::kConcave, quote.cost * 1.2,
                          quote.time_seconds * 1.05};
    ShowOutcome(catalog, engine, engine.OnQuery(query, budget, 10.0));
  }

  std::puts("\n[3] pauper: budget below every executable plan");
  {
    BudgetFunction budget{BudgetShape::kStep, quote.cost * 0.1,
                          quote.time_seconds * 4};
    ShowOutcome(catalog, engine, engine.OnQuery(query, budget, 20.0));
  }

  std::puts(
      "\n[4] the same pauper, 400 more times: regret accumulates toward"
      " the cheaper hypothetical structures until Eq. 3 trips");
  uint32_t investments = 0;
  for (int i = 0; i < 400; ++i) {
    const Query q = InstantiateQuery((*resolved)[1], catalog, rng, 1,
                                     static_cast<uint64_t>(100 + i));
    PlanSpec spec;
    spec.access = PlanSpec::Access::kBackend;
    const Money quote_i = model.EstimateExecution(q, spec).cost;
    BudgetFunction budget{BudgetShape::kStep, quote_i * 0.1, 1e6};
    const QueryOutcome outcome =
        engine.OnQuery(q, budget, 30.0 + static_cast<double>(i) * 10.0);
    for (StructureId id : outcome.investments) {
      ++investments;
      std::printf("  query %3d: INVESTED in %s\n", i,
                  engine.cache().registry().key(id).ToString(catalog).c_str());
    }
  }
  std::printf(
      "\n%u investments made; cloud credit %s; the pauper's queries now "
      "run in the cache.\n",
      investments, engine.account().credit().ToString().c_str());
  return 0;
}
