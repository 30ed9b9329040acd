#include "stats/ridge_newton.h"

#include <cmath>

#include "common/telemetry.h"
#include "stats/linalg.h"

namespace piperisk {
namespace stats {

Result<RidgeNewtonFit> FitRidgeNewton(
    const std::vector<std::vector<double>>& rows, double intercept,
    const GlmLink& link, const RidgeNewtonConfig& config) {
  const std::size_t n = rows.size();
  if (n == 0) return Status::InvalidArgument("empty training set");
  const std::size_t d = rows[0].size();
  for (const auto& row : rows) {
    if (row.size() != d) return Status::InvalidArgument("ragged feature rows");
  }
  const std::size_t dim = d + 1;  // intercept last

  RidgeNewtonFit fit;
  fit.weights.assign(d, 0.0);
  fit.intercept = intercept;

  auto linear_predictor = [&](std::size_t i, double b0,
                              const std::vector<double>& w) {
    const double* xi = rows[i].data();
    double eta = b0;
    for (std::size_t c = 0; c < d; ++c) eta += w[c] * xi[c];
    return eta;
  };
  auto log_likelihood = [&](double b0, const std::vector<double>& w) {
    double ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ll += link.log_likelihood(i, linear_predictor(i, b0, w));
    }
    for (double wc : w) ll -= 0.5 * config.ridge * wc * wc;
    return ll;
  };

  double current_ll = log_likelihood(fit.intercept, fit.weights);
  int steps = 0;
  while (steps < config.max_iterations) {
    // Gradient and the upper triangle of the Hessian in unit-stride row
    // loops, then the mirror. Each entry sums the same terms in the same
    // order as a full symmetric update would.
    std::vector<double> grad(dim, 0.0);
    SymmetricMatrix hess(dim);
    for (std::size_t i = 0; i < n; ++i) {
      const double* xi = rows[i].data();
      double resid = 0.0, weight = 0.0;
      link.moments(i, linear_predictor(i, fit.intercept, fit.weights), &resid,
                   &weight);
      for (std::size_t c = 0; c < d; ++c) grad[c] += resid * xi[c];
      grad[d] += resid;
      for (std::size_t r = 0; r < d; ++r) {
        const double wx = weight * xi[r];
        double* hr = &hess.at(r, 0);
        for (std::size_t c = r; c < d; ++c) hr[c] += wx * xi[c];
        hr[d] += wx;
      }
      hess.at(d, d) += weight;
    }
    for (std::size_t r = 1; r < dim; ++r) {
      for (std::size_t c = 0; c < r; ++c) hess.at(r, c) = hess.at(c, r);
    }
    for (std::size_t c = 0; c < d; ++c) {
      grad[c] -= config.ridge * fit.weights[c];
      hess.at(c, c) += config.ridge;
    }
    hess.AddDiagonal(1e-9);  // numerical floor

    if (Norm2(grad) < config.tolerance * (1.0 + std::fabs(current_ll))) break;

    auto step = CholeskySolve(hess, grad);
    if (!step.ok()) return step.status();

    // Step halving; a step up to 1e-12 below the current value is accepted.
    const double previous_ll = current_ll;
    double scale = 1.0;
    bool accepted = false;
    for (int half = 0; half < 30; ++half) {
      std::vector<double> w_try = fit.weights;
      for (std::size_t c = 0; c < d; ++c) w_try[c] += scale * (*step)[c];
      double b0_try = fit.intercept + scale * (*step)[d];
      double ll_try = log_likelihood(b0_try, w_try);
      if (ll_try > current_ll - 1e-12) {
        fit.weights = std::move(w_try);
        fit.intercept = b0_try;
        current_ll = ll_try;
        accepted = true;
        break;
      }
      scale *= 0.5;
    }
    if (!accepted) break;  // converged to numerical precision
    ++steps;
    if (!(current_ll > previous_ll)) break;  // at the rounding floor
  }
  fit.iterations = steps;

  static telemetry::Counter* const iterations =
      telemetry::Registry::Global().GetCounter("glm.newton.iterations");
  iterations->Add(steps);
  return fit;
}

}  // namespace stats
}  // namespace piperisk
