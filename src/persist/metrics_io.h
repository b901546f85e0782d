#pragma once

#include "src/persist/codec.h"
#include "src/persist/util_io.h"
#include "src/sim/metrics.h"

namespace cloudcache {
namespace persist {

/// Serializers for the full SimMetrics tree. A checkpoint must carry the
/// in-flight metrics of the interrupted run — the counter blocks with
/// their response histograms, timelines, tenant and cluster slices —
/// because the crash-recovery invariant is that the resumed run's final
/// SimMetrics is bit-identical to the uninterrupted run's, and metrics
/// accumulate from query zero.

void SaveSimMetrics(const SimMetrics& metrics, Encoder* enc);
Status RestoreSimMetrics(Decoder* dec, SimMetrics* metrics);

}  // namespace persist
}  // namespace cloudcache
