// Trace-golden pins for the economic event trace (src/obs/trace.h).
//
// Three properties carry the tracing contract:
//  1. Byte stability: the same configuration traces the same bytes, run
//     after run (what lets a committed golden trace diff cleanly).
//  2. Consistency: event counts in the trace equal the SimMetrics
//     counters of the run that produced them.
//  3. Isolation: tracing (and stage profiling) never feeds back into the
//     simulation — a fully instrumented run is bit-identical to a bare
//     one.

#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/catalog/tpch.h"
#include "src/obs/stage_profile.h"
#include "src/sim/experiment.h"
#include "tests/testing/metrics_equal.h"

namespace cloudcache {
namespace {

using cloudcache::testing::ExpectBitIdenticalMetrics;

TEST(EventTracerTest, RecordsAreWellFormedJsonLines) {
  std::ostringstream out;
  {
    obs::EventTracer tracer(&out);
    tracer.Event("invest", 42, 1.5, 3, 1)
        .U64("structure", 7)
        .F64("cost", 0.25)
        .Str("key", "index(a\"b)");
  }
  EXPECT_EQ(out.str(),
            "{\"type\":\"invest\",\"query\":42,\"t\":1.5,\"tenant\":3,"
            "\"node\":1,\"structure\":7,\"cost\":0.25,"
            "\"key\":\"index(a\\\"b)\"}\n");
}

/// Counts JSONL records of the given type.
size_t CountEvents(const std::string& trace, const std::string& type) {
  const std::string needle = "{\"type\":\"" + type + "\"";
  size_t count = 0;
  for (size_t pos = trace.find(needle); pos != std::string::npos;
       pos = trace.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

class TraceGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog(100.0));
    templates_ = new std::vector<QueryTemplate>(MakeTpchTemplates());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
    delete templates_;
    templates_ = nullptr;
  }

  /// Economy active enough that the short run invests and evicts.
  static ExperimentConfig ActiveConfig() {
    ExperimentConfig config;
    config.scheme = SchemeKind::kEconCheap;
    config.workload.interarrival_seconds = 1.0;
    config.workload.seed = 31;
    config.seed = 32;
    config.sim.num_queries = 1'500;
    config.customize_econ = [](EconScheme::Config& econ) {
      econ.economy.regret_fraction_a = 0.001;
      econ.economy.initial_credit = Money::FromDollars(20);
      econ.economy.model_build_latency = false;
    };
    return config;
  }

  static Catalog* catalog_;
  static std::vector<QueryTemplate>* templates_;
};

Catalog* TraceGoldenTest::catalog_ = nullptr;
std::vector<QueryTemplate>* TraceGoldenTest::templates_ = nullptr;

TEST_F(TraceGoldenTest, TraceIsByteStableAndMatchesMetrics) {
  ExperimentConfig config = ActiveConfig();

  std::ostringstream first_out;
  obs::EventTracer first_tracer(&first_out);
  config.tracer = &first_tracer;
  const SimMetrics first = RunExperiment(*catalog_, *templates_, config);
  first_tracer.Flush();

  std::ostringstream second_out;
  obs::EventTracer second_tracer(&second_out);
  config.tracer = &second_tracer;
  const SimMetrics second = RunExperiment(*catalog_, *templates_, config);
  second_tracer.Flush();

  // Golden: byte-identical bytes, run to run.
  EXPECT_EQ(first_out.str(), second_out.str());
  ExpectBitIdenticalMetrics(first, second);

  // The run must actually exercise the events this pin is about.
  const std::string trace = first_out.str();
  ASSERT_GT(first.investments, 0u);
  ASSERT_GT(first.evictions, 0u);

  // Consistency: one trace record per counted event.
  EXPECT_EQ(CountEvents(trace, "invest"), first.investments);
  EXPECT_EQ(CountEvents(trace, "evict"), first.evictions);

  // Every record carries the four mandatory context fields.
  std::istringstream lines(trace);
  std::string line;
  size_t records = 0;
  while (std::getline(lines, line)) {
    ++records;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    for (const char* field :
         {"\"type\":", "\"query\":", "\"t\":", "\"tenant\":", "\"node\":"}) {
      EXPECT_NE(line.find(field), std::string::npos)
          << field << " missing from: " << line;
    }
  }
  EXPECT_EQ(records, CountEvents(trace, "invest") +
                         CountEvents(trace, "evict") +
                         CountEvents(trace, "throttle") +
                         CountEvents(trace, "readmit") +
                         CountEvents(trace, "node_rent") +
                         CountEvents(trace, "node_release") +
                         CountEvents(trace, "migrate"));
}

TEST_F(TraceGoldenTest, ThrottleEventsMatchAdmissionMetrics) {
  ExperimentConfig config = ActiveConfig();
  config.workload.interarrival_seconds = 5.0;
  config.workload.seed = 29;
  config.seed = 30;
  config.tenancy.tenants = 4;
  config.tenancy.traffic_skew = 1.0;
  config.tenancy.admission = true;
  config.sim.num_queries = 3'000;
  config.customize_econ = [](EconScheme::Config& econ) {
    econ.economy.regret_fraction_a = 0.001;
    econ.economy.initial_credit = Money::FromDollars(20);
    econ.economy.model_build_latency = false;
    econ.economy.admission.throttle_ratio = 0.5;
    econ.economy.admission.readmit_ratio = 0.25;
    econ.economy.admission.min_regret = Money::FromDollars(0.05);
  };

  std::ostringstream out;
  obs::EventTracer tracer(&out);
  config.tracer = &tracer;
  const SimMetrics metrics = RunExperiment(*catalog_, *templates_, config);
  tracer.Flush();

  ASSERT_GT(metrics.throttled, 0u) << "config never throttled; the pin "
                                      "needs a run with admission action";
  // One throttle record per throttling onset — at most one per throttled
  // query, and at least one since throttling happened.
  const size_t throttles = CountEvents(out.str(), "throttle");
  EXPECT_GE(throttles, 1u);
  EXPECT_LE(throttles, metrics.throttled);
  // Readmissions only ever follow throttles.
  EXPECT_LE(CountEvents(out.str(), "readmit"), throttles);
}

TEST_F(TraceGoldenTest, ObservabilityOffIsBitIdenticalToInstrumented) {
  // THE observability invariant: tracing + stage profiling change not a
  // single bit of the simulation result.
  ExperimentConfig config = ActiveConfig();
  const SimMetrics bare = RunExperiment(*catalog_, *templates_, config);

  std::ostringstream out;
  obs::EventTracer tracer(&out);
  config.tracer = &tracer;
  obs::StageProfiler::Instance().Enable(true);
  const SimMetrics instrumented =
      RunExperiment(*catalog_, *templates_, config);
  obs::StageProfiler::Instance().Enable(false);
  obs::StageProfiler::Instance().Reset();

  EXPECT_GT(out.str().size(), 0u);
  ExpectBitIdenticalMetrics(bare, instrumented);
}

}  // namespace
}  // namespace cloudcache
