#include "src/workload/generator.h"

#include "src/util/logging.h"

namespace cloudcache {

WorkloadGenerator::WorkloadGenerator(
    const Catalog* catalog, std::vector<ResolvedTemplate> templates,
    WorkloadOptions options)
    : catalog_(catalog),
      templates_(std::move(templates)),
      options_(options),
      rng_(options.seed),
      popularity_(templates_.size(), options.popularity_skew) {
  CLOUDCACHE_CHECK(!templates_.empty());
  CLOUDCACHE_CHECK_GT(options_.interarrival_seconds, 0.0);
}

size_t WorkloadGenerator::RankOf(size_t index, uint64_t phase) const {
  // The ranking rotates one position per phase: the template that was
  // hottest cools off and the next one heats up — a slow workload drift
  // that forces the cache to adapt (and, at long inter-arrival times, to
  // evict structures it already paid for, per Section VII-B). The static
  // popularity_offset rotates the whole schedule so co-tenant streams run
  // distinct mixes.
  return (index + phase + options_.popularity_offset) % templates_.size();
}

size_t WorkloadGenerator::DrawTemplate() {
  if (have_previous_ &&
      rng_.NextBernoulli(options_.repeat_probability)) {
    return previous_template_;
  }
  const uint64_t phase = options_.drift_period == 0
                             ? 0
                             : next_id_ / options_.drift_period;
  const uint64_t rank = popularity_.Sample(rng_);
  // Find the template whose current rank equals the drawn rank.
  for (size_t i = 0; i < templates_.size(); ++i) {
    if (RankOf(i, phase) == rank) return i;
  }
  return 0;  // Unreachable: ranks are a permutation.
}

Query WorkloadGenerator::Next() {
  const size_t tmpl = DrawTemplate();
  previous_template_ = tmpl;
  have_previous_ = true;

  Query query = InstantiateQuery(templates_[tmpl], *catalog_, rng_,
                                 static_cast<int>(tmpl), next_id_,
                                 options_.selectivity_scale);
  query.arrival_time = next_arrival_;
  query.tenant_id = options_.tenant_id;

  ++next_id_;
  switch (options_.arrival) {
    case WorkloadOptions::Arrival::kFixed:
      next_arrival_ += options_.interarrival_seconds;
      break;
    case WorkloadOptions::Arrival::kPoisson:
      next_arrival_ += rng_.NextExponential(options_.interarrival_seconds);
      break;
  }
  return query;
}

template <typename Codec, typename Self>
void WorkloadGenerator::Fields(Codec& c, Self& self) {
  Rng::Fields(c, self.rng_);
  c.U64(self.next_id_);
  c.F64(self.next_arrival_);
  c.U64(self.previous_template_);
  c.Bool(self.have_previous_);
}

void WorkloadGenerator::SaveState(persist::Encoder* enc) const {
  Fields(*enc, *this);
}

Status WorkloadGenerator::RestoreState(persist::Decoder* dec) {
  Fields(*dec, *this);
  CLOUDCACHE_RETURN_IF_ERROR(dec->status());
  if (previous_template_ >= templates_.size()) {
    return Status::InvalidArgument(
        "snapshot workload cursor names template " +
        std::to_string(previous_template_) + " but this run has only " +
        std::to_string(templates_.size()));
  }
  return Status::OK();
}

}  // namespace cloudcache
