#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace cloudcache {
namespace obs {

/// Decision-loop stages of EconomyEngine::OnQuery. OnQuery runs them in
/// the order enumerate, price, skyline, settle; the enumerator values are
/// not that order, and they never change (see the asserts below).
enum class Stage : int {
  kEnumerate = 0,  // Plan enumeration plus the time/Ce columns.
  kSkyline = 1,    // Time/price skyline filtering of the plan set.
  kPrice = 2,      // Carried charges added to the price column.
  kSettle = 3,     // Plan selection, settlement, regret, investment.
};
inline constexpr int kNumStages = 4;

// The benchmark reads the profiler by integer stage index (index 1 is
// plan.skyline_ns, index 2 econ.price_ns) and compares runs across
// versions, so each value is pinned: reordering the enum would silently
// swap metric names.
static_assert(static_cast<int>(Stage::kEnumerate) == 0);
static_assert(static_cast<int>(Stage::kSkyline) == 1);
static_assert(static_cast<int>(Stage::kPrice) == 2);
static_assert(static_cast<int>(Stage::kSettle) == 3);

const char* StageName(Stage stage);

/// Process-wide wall-clock accumulator for the decision-loop stages.
///
/// Off by default and nearly free when off: the scoped timer reads one
/// relaxed atomic bool and touches no clock. When enabled
/// (`--profile-stages`) it accumulates per-stage call counts and
/// nanoseconds into relaxed atomics, so engines running on several sweep
/// worker threads may record into it at once.
///
/// Wall-clock time is observability-only by design: it never enters
/// SimMetrics, snapshots, or anything else the bit-identity pins compare
/// (see docs/observability.md).
class StageProfiler {
 public:
  static StageProfiler& Instance();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(Stage stage, uint64_t nanos) {
    const auto i = static_cast<size_t>(stage);
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    nanos_[i].fetch_add(nanos, std::memory_order_relaxed);
  }

  uint64_t count(Stage stage) const {
    return counts_[static_cast<size_t>(stage)].load(
        std::memory_order_relaxed);
  }
  uint64_t nanos(Stage stage) const {
    return nanos_[static_cast<size_t>(stage)].load(
        std::memory_order_relaxed);
  }

  void Reset();

  /// Human-readable per-stage table (calls, total ms, ns/call, share of
  /// profiled time); printed by cloudcache_sim under --profile-stages.
  std::string FormatTable() const;

 private:
  StageProfiler() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> counts_[kNumStages] = {};
  std::atomic<uint64_t> nanos_[kNumStages] = {};
};

/// RAII stage timer: times the enclosing scope into the global profiler
/// when profiling is enabled, costs one relaxed load when it is not.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(Stage stage)
      : stage_(stage), active_(StageProfiler::Instance().enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedStageTimer() {
    if (!active_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    StageProfiler::Instance().Record(
        stage_,
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  Stage stage_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace cloudcache
