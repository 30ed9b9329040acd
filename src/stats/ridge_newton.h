#ifndef PIPERISK_STATS_RIDGE_NEWTON_H_
#define PIPERISK_STATS_RIDGE_NEWTON_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/result.h"

namespace piperisk {
namespace stats {

/// Ridge-penalised Newton solver for generalised linear models with an
/// unpenalised intercept, shared by the Poisson regression (and through it
/// the Weibull NHPP) and the logistic regression. It maximises
///   sum_i l_i(eta_i) - ridge/2 ||w||^2,   eta_i = b0 + w' x_i,
/// by Newton steps with step halving. A model supplies only its link, row
/// by row: the log likelihood l_i(eta) and, at eta, the score residual
/// dl_i/deta (y_i - mu_i) and the Hessian weight -d2l_i/deta2.
struct GlmLink {
  std::function<double(std::size_t row, double eta)> log_likelihood;
  std::function<void(std::size_t row, double eta, double* residual,
                     double* weight)>
      moments;
};

struct RidgeNewtonConfig {
  double ridge = 1.0;        ///< L2 penalty on the weights (not the intercept)
  int max_iterations = 100;  ///< Newton steps
  double tolerance = 1e-8;   ///< stop when ||grad|| < tolerance * (1 + |ll|)
};

struct RidgeNewtonFit {
  std::vector<double> weights;
  double intercept = 0.0;
  int iterations = 0;  ///< Newton steps taken
};

/// Fits (intercept, weights) to the rectangular design `rows`, starting
/// from `intercept` and zero weights. Each iteration takes the Newton step,
/// halving it (at most 30 times) until the penalised log likelihood is no
/// more than 1e-12 below its current value. The fit stops when
///   - the gradient test above is met,
///   - an accepted step did not raise the log likelihood: it sits at its
///     rounding floor, where the gradient test may never be met,
///   - no halving is accepted (that step is not taken), or
///   - `max_iterations` steps were taken.
/// Adds the steps taken to the `glm.newton.iterations` counter. Fails on an
/// empty or ragged design or a Hessian that is not positive definite.
Result<RidgeNewtonFit> FitRidgeNewton(
    const std::vector<std::vector<double>>& rows, double intercept,
    const GlmLink& link, const RidgeNewtonConfig& config);

}  // namespace stats
}  // namespace piperisk

#endif  // PIPERISK_STATS_RIDGE_NEWTON_H_
