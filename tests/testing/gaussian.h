#pragma once

#include <cmath>

#include "src/util/rng.h"

namespace cloudcache::testing {

/// Standard normal via Marsaglia polar method.
inline double NextGaussian(Rng& rng) {
  double u, v, s;
  do {
    u = rng.NextUniform(-1, 1);
    v = rng.NextUniform(-1, 1);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return u * std::sqrt(-2.0 * std::log(s) / s);
}

}  // namespace cloudcache::testing
