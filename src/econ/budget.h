#pragma once

#include "src/util/money.h"

namespace cloudcache {

/// The shapes of B_Q(t) the evaluation sweeps (Fig. 1, ablation A6).
enum class BudgetShape {
  /// Fig. 1(a): constant amount over the whole support.
  kStep,
  /// Linear descent from the amount at t=0 to zero at t_max.
  kLinear,
  /// Fig. 1(b): amount * (1 - t/t_max)^2; drops steeply for small t,
  /// flattens near t_max (impatient user: speed is everything).
  kConvex,
  /// Fig. 1(c): amount * (1 - (t/t_max)^2); stays near the full amount for
  /// small t, plunges near t_max (deadline user).
  kConcave,
};

/// A user's budget function B_Q(t): the price the user is willing to pay
/// as a function of the query's execution time (Section IV-C, Fig. 1).
///
/// Non-increasing over its support (0, t_max]; outside the support it is
/// zero (the user will not accept service slower than t_max at any price).
/// The paper puts "no limitations for the structure of BQ", yet the shapes
/// here are closed: every caller builds one of the four BudgetShapes, so a
/// budget is a plain value, synthesized per query without an allocation
/// and evaluated without a virtual call.
struct BudgetFunction {
  BudgetShape shape = BudgetShape::kStep;
  Money amount;
  /// Latest acceptable completion time.
  double t_max = 0.0;

  /// Willingness to pay for completion in `t` seconds; zero for t <= 0 or
  /// t > t_max.
  Money At(double t) const {
    if (t <= 0.0 || t > t_max) return Money();
    switch (shape) {
      case BudgetShape::kStep:
        return amount;
      case BudgetShape::kLinear:
        return amount * (1.0 - t / t_max);
      case BudgetShape::kConvex: {
        const double slack = 1.0 - t / t_max;
        return amount * (slack * slack);
      }
      case BudgetShape::kConcave: {
        const double ratio = t / t_max;
        return amount * (1.0 - ratio * ratio);
      }
    }
    return Money();
  }
};

}  // namespace cloudcache
