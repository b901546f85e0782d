#include "src/econ/budget.h"

#include <algorithm>

namespace cloudcache {

Money BudgetFunction::At(double t) const {
  if (t <= 0.0 || t > t_max_) return Money();
  return Evaluate(t);
}

Status BudgetFunction::ValidateMonotone(int samples) const {
  if (samples < 2) return Status::InvalidArgument("need >= 2 samples");
  Money previous;
  for (int i = 0; i < samples; ++i) {
    const double t =
        t_max_ * static_cast<double>(i + 1) / static_cast<double>(samples);
    const Money value = At(t);
    if (i > 0 && value > previous) {
      return Status::InvalidArgument(
          "budget function increases near t=" + std::to_string(t));
    }
    previous = value;
  }
  return Status::OK();
}

StepBudget::StepBudget(Money amount, double t_max)
    : BudgetFunction(t_max), amount_(amount) {}

Money StepBudget::Evaluate(double) const { return amount_; }

LinearBudget::LinearBudget(Money amount, double t_max)
    : BudgetFunction(t_max), amount_(amount) {}

Money LinearBudget::Evaluate(double t) const {
  return amount_ * (1.0 - t / t_max());
}

ConvexBudget::ConvexBudget(Money amount, double t_max)
    : BudgetFunction(t_max), amount_(amount) {}

Money ConvexBudget::Evaluate(double t) const {
  const double slack = 1.0 - t / t_max();
  return amount_ * (slack * slack);
}

ConcaveBudget::ConcaveBudget(Money amount, double t_max)
    : BudgetFunction(t_max), amount_(amount) {}

Money ConcaveBudget::Evaluate(double t) const {
  const double ratio = t / t_max();
  return amount_ * (1.0 - ratio * ratio);
}

}  // namespace cloudcache
