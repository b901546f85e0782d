#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of `samples`; reorders them.
double Percentile(std::vector<uint32_t>* samples, double q);

/// Median of `values` (mean of the middle two for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// Spreads single-threaded timing over every CPU this process may use.
/// On a shared host one CPU can run well below the others (a busy
/// hyperthread sibling, interrupt load); left to the scheduler, a whole
/// run sits on whichever CPU it started on. Pinning work item `i` to the
/// i-th allowed CPU (round robin) gives every run the same mix.
class CpuRotation {
 public:
  CpuRotation();
  /// Pins the calling thread to allowed CPU number `i` mod their count.
  void Pin(size_t i) const;

 private:
  std::vector<int> cpus_;
};

/// Peak resident set (VmHWM) of process `pid`, or of this process when
/// `pid` is 0, in MB; 0 if unreadable. Unlike getrusage's ru_maxrss, VmHWM
/// belongs to the current program image, so it excludes whatever the
/// process was before exec (a forked Python or benchmark parent).
double PeakRssMb(int pid);

}  // namespace perfbench
