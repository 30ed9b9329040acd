// Reference computations the benchmark checks the program against. They
// share no code with the library's evaluation engine.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <vector>

namespace perfbench {

/// Normalised area under the tie-interpolated detection curve (x = share
/// of pipes inspected, y = share of test failures found) from 0 to
/// `max_fraction`. Pipes with equal scores form one segment of the curve,
/// which is the average over every order of the tied pipes.
double ReferenceDetectionAuc(const std::vector<double>& scores,
                             const std::vector<int>& failures,
                             double max_fraction);

/// True when every value is finite (and inside [lo, hi] when lo <= hi).
bool AllFiniteIn(const std::vector<double>& values, double lo, double hi);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
