#ifndef PIPERISK_BASELINES_WEIBULL_H_
#define PIPERISK_BASELINES_WEIBULL_H_

#include <string>
#include <vector>

#include "core/model.h"

namespace piperisk {
namespace baselines {

/// Weibull-process baseline (Sect. 18.4.3, Eq. 18.9): failures follow a
/// nonhomogeneous Poisson process with power-law intensity
///   lambda(t) = alpha beta t^(beta - 1) * exp(w' z)
/// (covariates multiplicative, as in the paper). With year-resolution data
/// the likelihood is Poisson on per-pipe training counts with mean
///   mu_i = exp(w' z_i) * alpha * (b_i^beta - a_i^beta),
/// where [a_i, b_i] is the pipe's observed age interval. Fitting runs a
/// golden-section search over beta on the profile likelihood; each
/// evaluation at a fixed beta is a full Newton fit of (log alpha, w), a
/// Poisson regression with exposure b_i^beta - a_i^beta.
struct WeibullConfig {
  double ridge = 1e-3;
  int outer_iterations = 25;   ///< golden-section steps on beta
  int newton_iterations = 40;  ///< per profile fit
  double beta_min = 0.2;
  double beta_max = 6.0;
};

class WeibullModel : public core::FailureModel {
 public:
  explicit WeibullModel(WeibullConfig config = WeibullConfig());

  std::string name() const override { return "Weibull"; }
  Status Fit(const core::ModelInput& input) override;
  Result<std::vector<double>> ScorePipes(const core::ModelInput& input) override;
  /// Blocked parallel scoring over the flat feature matrix.
  Result<std::vector<double>> ScorePipes(
      const core::ModelInput& input,
      const core::ScoreOptions& options) override;

  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  const std::vector<double>& coefficients() const { return weights_; }

  /// Expected failures of a pipe with features z between ages [a, b].
  double ExpectedFailures(const std::vector<double>& z, double a,
                          double b) const;
  /// Raw-row variant (batch scoring path; identical arithmetic).
  double ExpectedFailures(const double* z, std::size_t n, double a,
                          double b) const;

 private:
  WeibullConfig config_;
  bool fitted_ = false;
  double alpha_ = 1e-3;
  double beta_ = 1.0;
  std::vector<double> weights_;
};

}  // namespace baselines
}  // namespace piperisk

#endif  // PIPERISK_BASELINES_WEIBULL_H_
