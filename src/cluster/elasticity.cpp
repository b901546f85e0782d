#include "src/cluster/elasticity.h"

#include "src/util/logging.h"

namespace cloudcache {

ElasticAction ElasticityController::Step(const ElasticityWindow& window) {
  const size_t nodes = window.routed.size();
  CLOUDCACHE_CHECK_GE(nodes, 1u);
  cold_streaks_.resize(nodes, 0);  // A fresh node starts with no streak.

  // Update streaks every window — including during cooldown, so a signal
  // that persists straight through it acts the moment cooldown expires.
  const bool hot =
      window.standing_regret.ToDollars() > window.projected_rent_dollars;
  hot_streak_ = hot ? hot_streak_ + 1 : 0;

  for (size_t n = 0; n < nodes; ++n) {
    const bool cold =
        static_cast<double>(window.routed[n]) <
        options_.cold_share * static_cast<double>(window.window_queries);
    cold_streaks_[n] = cold ? cold_streaks_[n] + 1 : 0;
  }

  if (cooldown_ > 0) {
    --cooldown_;
    return ElasticAction{};
  }

  // Release before rent: when both signals fire the fleet is misbalanced,
  // and dropping a node that earns nothing is free while renting one
  // costs rent from the first second.
  if (nodes > options_.min_nodes) {
    size_t coldest = 0;  // 0 = none (the coordinator is never released).
    for (size_t n = 1; n < nodes; ++n) {
      if (cold_streaks_[n] < options_.sustain_windows) continue;
      // Ties to the higher index: later-rented nodes go first.
      if (coldest == 0 || window.routed[n] <= window.routed[coldest]) {
        coldest = n;
      }
    }
    if (coldest != 0) {
      hot_streak_ = 0;
      cold_streaks_.assign(nodes, 0);
      cooldown_ = options_.cooldown_windows;
      ElasticAction action;
      action.decision = ElasticDecision::kRelease;
      action.release_index = coldest;
      return action;
    }
  }

  if (hot_streak_ >= options_.sustain_windows &&
      nodes < options_.max_nodes) {
    hot_streak_ = 0;
    cold_streaks_.assign(nodes, 0);
    cooldown_ = options_.cooldown_windows;
    ElasticAction action;
    action.decision = ElasticDecision::kRent;
    return action;
  }
  return ElasticAction{};
}

template <typename Codec, typename Self>
void ElasticityController::Fields(Codec& c, Self& self) {
  c.U32(self.hot_streak_);
  c.Seq(self.cold_streaks_, [&c](auto& streak) { c.U32(streak); });
  c.U32(self.cooldown_);
}

void ElasticityController::SaveState(persist::Encoder* enc) const {
  Fields(*enc, *this);
}

Status ElasticityController::RestoreState(persist::Decoder* dec) {
  Fields(*dec, *this);
  return dec->status();
}

}  // namespace cloudcache
