#include "checks.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double ReferenceDetectionAuc(const std::vector<double>& scores,
                             const std::vector<int>& failures,
                             double max_fraction) {
  const std::size_t n = scores.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  double total = 0.0;
  for (int f : failures) total += f;
  if (n == 0 || total <= 0.0) return std::nan("");

  // One curve point per tie group; trapezoids between consecutive points,
  // the last one cut at max_fraction by linear interpolation.
  double area = 0.0, px = 0.0, py = 0.0;
  std::size_t i = 0;
  double found = 0.0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) {
      found += failures[order[j]];
      ++j;
    }
    const double x = static_cast<double>(j) / static_cast<double>(n);
    const double y = found / total;
    if (x >= max_fraction) {
      const double y_cut =
          x > px ? py + (max_fraction - px) / (x - px) * (y - py) : py;
      area += 0.5 * (py + y_cut) * (max_fraction - px);
      return area / max_fraction;
    }
    area += 0.5 * (py + y) * (x - px);
    px = x;
    py = y;
    i = j;
  }
  return area / max_fraction;
}

bool AllFiniteIn(const std::vector<double>& values, double lo, double hi) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
    if (lo <= hi && (v < lo || v > hi)) return false;
  }
  return true;
}

}  // namespace perfbench
