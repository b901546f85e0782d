#include "src/econ/account.h"

#include "src/util/logging.h"

namespace cloudcache {

void CloudAccount::DepositRevenue(Money amount) {
  CLOUDCACHE_CHECK_GE(amount.micros(), 0);
  credit_ += amount;
  revenue_ += amount;
}

void CloudAccount::ChargeExpenditure(Money amount) {
  CLOUDCACHE_CHECK_GE(amount.micros(), 0);
  credit_ -= amount;
  expenditure_ += amount;
}

Status CloudAccount::WithdrawInvestment(Money amount) {
  CLOUDCACHE_CHECK_GE(amount.micros(), 0);
  if (amount > credit_) {
    return Status::ResourceExhausted(
        "investment " + amount.ToString() + " exceeds credit " +
        credit_.ToString());
  }
  credit_ -= amount;
  investment_ += amount;
  return Status::OK();
}

template <typename Codec, typename Self>
void CloudAccount::Fields(Codec& c, Self& self) {
  c.Money(self.initial_);
  c.Money(self.credit_);
  c.Money(self.revenue_);
  c.Money(self.expenditure_);
  c.Money(self.investment_);
}

void CloudAccount::SaveState(persist::Encoder* enc) const {
  Fields(*enc, *this);
}

Status CloudAccount::RestoreState(persist::Decoder* dec) {
  Fields(*dec, *this);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (credit_ != initial_ + revenue_ - expenditure_ - investment_) {
    return Status::InvalidArgument(
        "snapshot account books do not balance (credit != initial + revenue "
        "- expenditure - investment)");
  }
  return Status::OK();
}

}  // namespace cloudcache
