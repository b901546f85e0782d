#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/persist/codec.h"
#include "src/structure/structure.h"
#include "src/util/money.h"

namespace cloudcache {

/// Knobs of the per-tenant admission policy (see AdmissionController).
struct AdmissionOptions {
  /// Master switch; everything below is inert while false (the default),
  /// and the engine's behavior is bit-identical to the pre-admission code.
  bool enabled = false;
  /// A tenant is throttled once the regret the economy accrued on its
  /// behalf but never monetized exceeds this multiple of the revenue the
  /// tenant brought in.
  double throttle_ratio = 2.0;
  /// A throttled tenant is readmitted once revenue growth brings the
  /// ratio back under this bound. Must be <= throttle_ratio; the gap is
  /// the hysteresis band that prevents per-query flapping.
  double readmit_ratio = 1.0;
  /// No tenant is judged before its unmonetized regret reaches this
  /// floor, so a cold-start tenant with a few dollars of regret and no
  /// revenue yet is not throttled on its first queries.
  Money min_regret = Money::FromDollars(1.0);
};

/// Per-tenant admission control: throttles tenants whose accrued regret
/// the economy cannot monetize.
///
/// The shared economy invests the global ledger's regret wherever Eq. 3
/// says, so a tenant whose demand never converts into profitable
/// structures — its regret keeps aging out of the candidate pool or
/// backing builds that immediately fail — still drags investment capital
/// and candidate-pool slots away from the tenants whose regret pays.
/// This controller watches, per tenant, the split of accrued regret into
/// *monetized* (the tenant's ledger share of a structure at the moment
/// the economy invested in it — provisionally: a structure that later
/// fails maintenance hands its backers' shares back to unmonetized,
/// because a build that could not pay its rent wasted the credit it
/// consumed) and *unmonetized* (everything else: standing regret, regret
/// forfeited by aging, and the reclaimed backing of failed builds),
/// against the revenue the tenant's queries deposited. When unmonetized
/// regret outruns revenue by `throttle_ratio`, the tenant is throttled;
/// revenue keeps accumulating while throttled (its queries are still
/// served and billed), so the ratio decays and the tenant is readmitted
/// at `readmit_ratio` — a deterministic hysteresis loop driven purely by
/// the query stream.
///
/// The controller only decides; the EconomyEngine enforces: a throttled
/// tenant's queries are served exactly as before (same plans, same
/// payments — throttling never degrades an individual response), but
/// their regret is not booked, and the tenant's standing regret is
/// forfeited at the moment of throttling, so the shared ledger stops
/// investing on the tenant's behalf. All state is a pure function of the
/// recorded stream, preserving bit-identical replays.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Provisions `n` tenants, resetting all state (mirrors
  /// EconomyEngine::SetTenantCount). With n == 0 the controller never
  /// throttles.
  void SetTenantCount(size_t n);

  bool enabled() const { return options_.enabled; }
  size_t tenant_count() const { return tenants_.size(); }

  /// Books revenue a tenant's query deposited (the user's payment).
  void RecordRevenue(uint32_t tenant, Money amount);
  /// Books regret accrued on the tenant's behalf (its share of every
  /// Eq. 1/2 distribution).
  void RecordRegret(uint32_t tenant, Money amount);
  /// Books regret that converted into an investment: the tenant's ledger
  /// share of `structure` at the moment the economy built it. The share
  /// is remembered per structure so a later failure can reclaim it.
  void RecordMonetized(uint32_t tenant, StructureId structure, Money amount);
  /// A built structure failed maintenance: every tenant share recorded
  /// for it moves back from monetized to unmonetized (the build was
  /// wasted). No-op for structures with no recorded backing.
  void OnStructureFailed(StructureId structure);

  /// Re-evaluates and returns the tenant's throttle state. Returns true
  /// exactly while the tenant is throttled; the transition into the
  /// throttled state is also reported through `newly_throttled` (when
  /// non-null) so the engine can forfeit the tenant's standing regret
  /// once, at the moment of throttling.
  bool Throttled(uint32_t tenant, bool* newly_throttled = nullptr);

  /// Accrued-but-never-monetized regret (the throttle signal's numerator).
  Money Unmonetized(uint32_t tenant) const;
  Money revenue(uint32_t tenant) const { return tenants_.at(tenant).revenue; }
  Money accrued(uint32_t tenant) const { return tenants_.at(tenant).accrued; }
  bool throttled(uint32_t tenant) const {
    return tenants_.at(tenant).throttled;
  }

  /// Checkpoint support: per-tenant state in tenant order plus the
  /// per-structure backing shares sorted by id. The tenant count must
  /// already have been provisioned (reconstruction does it).
  void SaveState(persist::Encoder* enc) const;
  Status RestoreState(persist::Decoder* dec);

 private:
  struct TenantState {
    Money revenue;
    /// Regret booked while admitted (suppressed regret is never booked).
    Money accrued;
    /// Portion of `accrued` that backed structures the economy built.
    Money monetized;
    bool throttled = false;
  };

  /// The snapshot field list of the tenant states. The backing shares
  /// follow it, hand-laid: the hash map is written in ascending id order.
  template <typename Codec, typename Self>
  static void TenantFields(Codec& c, Self& self);

  AdmissionOptions options_;
  std::vector<TenantState> tenants_;
  /// Per-structure monetized shares (one slot per tenant), kept until the
  /// structure fails (reclaimed) or forever if it stays healthy.
  std::unordered_map<StructureId, std::vector<Money>> backing_;
};

}  // namespace cloudcache
