// Ablation A6: user budget-function shape (Fig. 1).
//
// The paper's experiments fix a step function; the paper allows any
// non-increasing shape, and this sweep covers the four of Fig. 1. Shapes
// that discount slow service steeply (convex) push more interactions into
// case A (nothing affordable), starve the cloud of profit, and shift
// regret toward cost-saving structures; deadline-style concave budgets
// behave like steps until the cliff.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/sim/report.h"
#include "src/util/logging.h"

int main(int argc, char** argv) {
  using namespace cloudcache;
  using namespace cloudcache::bench;

  const BenchOptions options = ParseArgs(argc, argv, /*default=*/40'000);
  const PaperSetup setup = MakePaperSetup(options);

  struct Shape {
    BudgetShape shape;
    const char* name;
  };
  const std::vector<Shape> shapes = {
      {BudgetShape::kStep, "step"},
      {BudgetShape::kLinear, "linear"},
      {BudgetShape::kConvex, "convex"},
      {BudgetShape::kConcave, "concave"},
  };
  std::vector<SweepVariant> variants;
  for (const Shape& shape : shapes) {
    variants.push_back(
        {shape.name, [shape](ExperimentConfig& config) {
           config.customize_econ = [shape](EconScheme::Config& econ) {
             econ.economy.initial_credit = Money::FromDollars(200);
             econ.economy.model_build_latency = false;
             econ.economy.regret_fraction_a = 0.02;
             econ.budget.shape = shape.shape;
           };
         }});
  }
  ExperimentConfig base = PaperConfig(options, 10.0);
  base.scheme = SchemeKind::kEconCheap;
  const std::vector<SweepResult> results = RunVariantSweep(
      setup, options, base, {SchemeKind::kEconCheap}, std::move(variants));

  TableWriter table({"shape", "mean_resp_s", "op_cost_$", "profit_$",
                     "case_A", "case_B", "case_C", "investments"});
  for (size_t v = 0; v < shapes.size(); ++v) {
    const SimMetrics& m = results[v].metrics;
    CLOUDCACHE_CHECK(table
                         .AddRow({shapes[v].name,
                                  FormatDouble(m.MeanResponse(), 3),
                                  FormatDouble(m.operating_cost.Total(), 2),
                                  FormatDouble(m.profit.ToDollars(), 2),
                                  std::to_string(m.case_a),
                                  std::to_string(m.case_b),
                                  std::to_string(m.case_c),
                                  std::to_string(m.investments)})
                         .ok());
  }
  std::puts("Ablation A6 — user budget shape (Fig. 1), econ-cheap @ 10s");
  EmitTable(table, options);
  return 0;
}
