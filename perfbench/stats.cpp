#include "stats.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

double Percentile(std::vector<uint32_t>* samples, double q) {
  if (samples->empty()) return 0;
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n) - 1;
  std::nth_element(samples->begin(),
                   samples->begin() + static_cast<std::ptrdiff_t>(rank),
                   samples->end());
  return static_cast<double>((*samples)[rank]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

void CpuRotation::Pin(size_t i) const {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[i % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double PeakRssMb(int pid) {
  std::ifstream status("/proc/" +
                       (pid == 0 ? std::string("self") : std::to_string(pid)) +
                       "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // The line reads "N kB".
    }
  }
  return 0;
}

}  // namespace perfbench
