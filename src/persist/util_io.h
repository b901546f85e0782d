#pragma once

#include "src/persist/codec.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace cloudcache {
namespace persist {

/// Serializers for the util types. Separate from metrics_io so econ-layer
/// components (schemes, budgets) can persist their RNGs without pulling in
/// the sim layer's metrics tree.

void SaveRng(const Rng& rng, Encoder* enc);
Status RestoreRng(Decoder* dec, Rng* rng);

void SaveTimeSeries(const TimeSeries& series, Encoder* enc);
Status RestoreTimeSeries(Decoder* dec, TimeSeries* series);

}  // namespace persist
}  // namespace cloudcache
