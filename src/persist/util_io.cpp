#include "src/persist/util_io.h"

#include <utility>
#include <vector>

namespace cloudcache {
namespace persist {

void SaveRng(const Rng& rng, Encoder* enc) {
  uint64_t words[5];
  rng.SaveState(words);
  for (uint64_t word : words) enc->PutU64(word);
}

Status RestoreRng(Decoder* dec, Rng* rng) {
  uint64_t words[5];
  for (uint64_t& word : words) {
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadU64(&word));
  }
  rng->RestoreState(words);
  return Status::OK();
}

void SaveTimeSeries(const TimeSeries& series, Encoder* enc) {
  enc->PutU64(series.size());
  for (double t : series.times()) enc->PutDouble(t);
  for (double v : series.values()) enc->PutDouble(v);
}

Status RestoreTimeSeries(Decoder* dec, TimeSeries* series) {
  uint64_t size = 0;
  CLOUDCACHE_RETURN_IF_ERROR(dec->ReadLength(&size));
  std::vector<double> times(size), values(size);
  for (double& t : times) {
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&t));
  }
  for (double& v : values) {
    CLOUDCACHE_RETURN_IF_ERROR(dec->ReadDouble(&v));
  }
  series->RestoreRaw(std::move(times), std::move(values));
  return Status::OK();
}

}  // namespace persist
}  // namespace cloudcache
