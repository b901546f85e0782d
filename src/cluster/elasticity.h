#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/persist/codec.h"
#include "src/util/money.h"

namespace cloudcache {

/// Elasticity policy knobs. Windows are counted in queries, not seconds,
/// so decisions are a pure function of the query stream (bit-identical
/// across repeats and sweep thread counts).
struct ElasticityOptions {
  /// Queries between controller evaluations (one window).
  uint64_t check_interval_queries = 500;
  /// Consecutive windows a signal must persist before the controller acts
  /// — "sustained", so one regret spike or one quiet window never moves
  /// the cluster.
  uint32_t sustain_windows = 3;
  /// Windows after any scale event before the next is allowed; lets the
  /// router re-balance (and new structures get built) before judging the
  /// new shape.
  uint32_t cooldown_windows = 4;
  /// A node routed fewer than this share of a window's queries is cold:
  /// the router is finding no resident structure worth sending traffic to,
  /// i.e. the node's inventory no longer pays its keep.
  double cold_share = 0.02;
  /// n of Eq. 7: the horizon a new node's rent is amortized over when
  /// compared against standing regret (kept in sync with the economy's
  /// own amortization horizon by the experiment wiring).
  int64_t amortization_horizon = 50'000;
  /// Cluster size bounds. The coordinator (node index 0) is never
  /// released, so min_nodes is implicitly at least 1.
  uint32_t min_nodes = 1;
  uint32_t max_nodes = 4;
};

/// One window's observations, assembled by the cluster scheme.
struct ElasticityWindow {
  /// Standing (unmonetized) regret across every node's economy at window
  /// end: demand for structures the current fleet has not been able to
  /// monetize into builds.
  Money standing_regret;
  /// One node's rent over the amortization horizon, at decision prices:
  /// rent_per_second x horizon_queries x observed mean interarrival.
  double projected_rent_dollars = 0;
  /// Queries routed to each live node during the window (index-aligned
  /// with the cluster's node vector; index 0 is the coordinator).
  std::vector<uint64_t> routed;
  /// Total queries in the window (the sum of `routed`).
  uint64_t window_queries = 0;
};

enum class ElasticDecision { kHold, kRent, kRelease };

struct ElasticAction {
  ElasticDecision decision = ElasticDecision::kHold;
  /// Node index to release (valid when decision == kRelease; never 0).
  size_t release_index = 0;
};

/// The economic scale-out/in policy, separated from the cluster mechanics
/// so it is unit-testable with hand-built windows.
///
/// Scale-out: the cluster's standing regret is unserved willingness to
/// pay — demand the current nodes cannot monetize because their credit,
/// disk, and build budgets are committed. When that regret, sustained
/// over `sustain_windows`, exceeds what one more node would cost in rent
/// over the amortization horizon, renting the node is priced exactly like
/// any other investment the paper's economy makes — and the controller
/// rents.
///
/// Scale-in: a node whose routed share stays under `cold_share` for
/// `sustain_windows` windows holds no structure the router finds worth
/// routing to — its inventory no longer pays its rent. The controller
/// releases the coldest such node (smallest routed count, ties to the
/// higher index, never the coordinator); the cluster migrates its
/// still-warm structures before the node goes away.
class ElasticityController {
 public:
  explicit ElasticityController(ElasticityOptions options)
      : options_(options) {}

  /// Evaluates one window. Called exactly once per check interval, in
  /// query-stream order.
  ElasticAction Step(const ElasticityWindow& window);

  const ElasticityOptions& options() const { return options_; }

  /// Checkpoint support: the hot/cold streaks and the cooldown are the
  /// controller's entire run state (the options are configuration).
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec);

 private:
  /// The snapshot field list, run by SaveState and RestoreState alike.
  template <typename Codec, typename Self>
  static void Fields(Codec& c, Self& self);
  ElasticityOptions options_;
  uint32_t hot_streak_ = 0;
  /// Per-node-index consecutive cold windows. Reset wholesale after any
  /// scale event: indices shift on release and a fresh node changes every
  /// node's routed share, so old streaks describe a fleet that no longer
  /// exists.
  std::vector<uint32_t> cold_streaks_;
  uint32_t cooldown_ = 0;
};

}  // namespace cloudcache
