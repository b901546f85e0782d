#pragma once

#include <string>

#include "src/econ/budget.h"
#include "src/util/money.h"
#include "src/util/status.h"

namespace cloudcache::testing {

/// Samples a budget function `budget(t)` over (0, t_max] and fails with
/// InvalidArgument on any increase: B_Q is expected to be non-increasing
/// over its support (Section IV-C).
template <typename Fn>
Status ValidateMonotone(const Fn& budget, double t_max,
                        int samples = 64) {
  if (samples < 2) return Status::InvalidArgument("need >= 2 samples");
  Money previous;
  for (int i = 0; i < samples; ++i) {
    const double t =
        t_max * static_cast<double>(i + 1) / static_cast<double>(samples);
    const Money value = budget(t);
    if (i > 0 && value > previous) {
      return Status::InvalidArgument(
          "budget function increases near t=" + std::to_string(t));
    }
    previous = value;
  }
  return Status::OK();
}

/// ValidateMonotone over a BudgetFunction's own support.
inline Status ValidateMonotone(const BudgetFunction& budget,
                               int samples = 64) {
  return ValidateMonotone(
      [&budget](double t) { return budget.At(t); }, budget.t_max, samples);
}

}  // namespace cloudcache::testing
