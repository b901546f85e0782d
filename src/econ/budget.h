#pragma once

#include <memory>

#include "src/util/money.h"
#include "src/util/status.h"

namespace cloudcache {

/// A user's budget function B_Q(t): the price she is willing to pay as a
/// function of the query's execution time (Section IV-C, Fig. 1).
///
/// The function is expected to be non-increasing over its support
/// (0, t_max]; outside the support it is zero (the user will not accept
/// service slower than t_max at any price). ValidateMonotone() checks the
/// expectation by sampling, since arbitrary user-supplied shapes are
/// allowed ("There are no limitations for the structure of BQ").
class BudgetFunction {
 public:
  virtual ~BudgetFunction() = default;

  /// Willingness to pay for completion in `t` seconds; zero for t <= 0 or
  /// t > t_max().
  Money At(double t) const;

  /// Latest acceptable completion time.
  double t_max() const { return t_max_; }

  /// Samples the function and fails with InvalidArgument on any increase.
  Status ValidateMonotone(int samples = 64) const;

 protected:
  explicit BudgetFunction(double t_max) : t_max_(t_max) {}

  /// For subclasses whose parameters can be re-bound in place (the budget
  /// synthesizer recycles one function object per query instead of
  /// allocating).
  void set_t_max(double t_max) { t_max_ = t_max; }

  /// Shape on (0, t_max]; implemented by subclasses.
  virtual Money Evaluate(double t) const = 0;

 private:
  double t_max_;
};

/// Fig. 1(a): constant |a| over the whole support.
class StepBudget : public BudgetFunction {
 public:
  StepBudget(Money amount, double t_max);

  /// Re-binds the parameters in place (object recycling).
  void Reset(Money amount, double t_max) {
    amount_ = amount;
    set_t_max(t_max);
  }

 protected:
  Money Evaluate(double t) const override;

 private:
  Money amount_;
};

/// Linear descent from `amount` at t=0 to zero at t_max.
class LinearBudget : public BudgetFunction {
 public:
  LinearBudget(Money amount, double t_max);

  void Reset(Money amount, double t_max) {
    amount_ = amount;
    set_t_max(t_max);
  }

 protected:
  Money Evaluate(double t) const override;

 private:
  Money amount_;
};

/// Fig. 1(b): convex descent — amount * (1 - t/t_max)^2; drops steeply for
/// small t, flattens near t_max (impatient user: speed is everything).
class ConvexBudget : public BudgetFunction {
 public:
  ConvexBudget(Money amount, double t_max);

  void Reset(Money amount, double t_max) {
    amount_ = amount;
    set_t_max(t_max);
  }

 protected:
  Money Evaluate(double t) const override;

 private:
  Money amount_;
};

/// Fig. 1(c): concave descent — amount * (1 - (t/t_max)^2); stays near the
/// full amount for small t, plunges near t_max (deadline user).
class ConcaveBudget : public BudgetFunction {
 public:
  ConcaveBudget(Money amount, double t_max);

  void Reset(Money amount, double t_max) {
    amount_ = amount;
    set_t_max(t_max);
  }

 protected:
  Money Evaluate(double t) const override;

 private:
  Money amount_;
};

}  // namespace cloudcache
