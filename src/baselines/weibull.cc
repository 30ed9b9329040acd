#include "baselines/weibull.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/trace.h"
#include "core/covariates.h"

namespace piperisk {
namespace baselines {

namespace {

/// Observed age interval [a, b] of a pipe over the training window; returns
/// false when the pipe did not exist during training.
bool AgeInterval(const net::Pipe& pipe, const data::TemporalSplit& split,
                 double* a, double* b) {
  int entry = std::max(0, split.train_first - pipe.laid_year);
  int exit = split.train_last + 1 - pipe.laid_year;
  if (exit <= 0) return false;
  *a = static_cast<double>(entry);
  *b = static_cast<double>(exit);
  return *b > *a;
}

}  // namespace

WeibullModel::WeibullModel(WeibullConfig config) : config_(config) {}

Status WeibullModel::Fit(const core::ModelInput& input) {
  telemetry::ScopedSpan span("baselines.weibull.fit");
  const size_t n = input.num_pipes();
  if (n == 0) return Status::InvalidArgument("no pipes to fit");

  // Assemble counts and age intervals once.
  std::vector<double> counts;
  std::vector<double> lo, hi;
  std::vector<const std::vector<double>*> feats;
  counts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double a = 0.0, b = 0.0;
    if (!AgeInterval(*input.pipes[i], input.split, &a, &b)) continue;
    counts.push_back(static_cast<double>(input.outcomes[i].train_failures));
    lo.push_back(a);
    hi.push_back(b);
    feats.push_back(&input.pipe_features[i]);
  }
  if (counts.empty()) {
    return Status::FailedPrecondition("no pipes observed in training window");
  }

  // Profile fit: for a fixed beta, mu_i = exp(b0 + w'z_i) * (b^beta - a^beta)
  // is a Poisson regression with exposure (b^beta - a^beta); reuse the
  // Newton solver from core::PoissonRegression.
  std::vector<std::vector<double>> rows(feats.size());
  for (size_t i = 0; i < feats.size(); ++i) rows[i] = *feats[i];

  auto profile = [&](double beta, core::PoissonRegression* out_model) {
    std::vector<double> exposure(counts.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      exposure[i] =
          std::max(std::pow(hi[i], beta) - std::pow(lo[i], beta), 1e-9);
    }
    core::PoissonRegressionConfig prc;
    prc.ridge = config_.ridge;
    prc.max_iterations = config_.newton_iterations;
    auto fit = core::PoissonRegression::Fit(rows, counts, exposure, prc);
    if (!fit.ok()) return -1e300;
    // Profile log likelihood at the fitted (intercept, w).
    double ll = 0.0;
    for (size_t i = 0; i < counts.size(); ++i) {
      double mu = exposure[i] * fit->Rate(rows[i]);
      mu = std::max(mu, 1e-12);
      ll += counts[i] * std::log(mu) - mu;
    }
    for (double w : fit->weights()) ll -= 0.5 * config_.ridge * w * w;
    if (out_model != nullptr) *out_model = std::move(*fit);
    return ll;
  };

  // Golden-section search on beta.
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = config_.beta_min, b = config_.beta_max;
  double x1 = b - phi * (b - a);
  double x2 = a + phi * (b - a);
  double f1 = profile(x1, nullptr);
  double f2 = profile(x2, nullptr);
  for (int iter = 0; iter < config_.outer_iterations; ++iter) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + phi * (b - a);
      f2 = profile(x2, nullptr);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - phi * (b - a);
      f1 = profile(x1, nullptr);
    }
    if (b - a < 1e-4) break;
  }
  beta_ = 0.5 * (a + b);
  core::PoissonRegression final_fit;
  double ll = profile(beta_, &final_fit);
  if (ll <= -1e299) {
    return Status::NotConverged("Weibull profile fit failed");
  }
  alpha_ = std::exp(final_fit.intercept());
  weights_ = final_fit.weights();
  fitted_ = true;
  return Status::OK();
}

double WeibullModel::ExpectedFailures(const std::vector<double>& z, double a,
                                      double b) const {
  return ExpectedFailures(z.data(), z.size(), a, b);
}

double WeibullModel::ExpectedFailures(const double* z, std::size_t n, double a,
                                      double b) const {
  // A feature vector that disagrees with the fitted weights means the
  // fit/score schemas drifted; truncating the dot product would hide that,
  // so surface it as NaN (ScorePipes validates up front and returns
  // InvalidArgument before reaching here).
  if (n != weights_.size()) return std::numeric_limits<double>::quiet_NaN();
  double eta = 0.0;
  for (size_t c = 0; c < weights_.size(); ++c) {
    eta += weights_[c] * z[c];
  }
  eta = std::clamp(eta, -30.0, 30.0);
  double mass = std::pow(std::max(b, 0.0), beta_) -
                std::pow(std::max(a, 0.0), beta_);
  return alpha_ * std::max(mass, 0.0) * std::exp(eta);
}

Result<std::vector<double>> WeibullModel::ScorePipes(
    const core::ModelInput& input) {
  if (!fitted_) return Status::FailedPrecondition("WeibullModel not fitted");
  if (input.feature_dim() != weights_.size()) {
    return Status::InvalidArgument(
        "feature dimension mismatch between fit and score inputs");
  }
  std::vector<double> scores(input.num_pipes(), 0.0);
  for (size_t i = 0; i < input.num_pipes(); ++i) {
    double age =
        std::max(0, input.split.test_year - input.pipes[i]->laid_year);
    scores[i] =
        ExpectedFailures(input.pipe_features[i], age, age + 1.0);
  }
  return scores;
}

Result<std::vector<double>> WeibullModel::ScorePipes(
    const core::ModelInput& input, const core::ScoreOptions& options) {
  if (!fitted_) return Status::FailedPrecondition("WeibullModel not fitted");
  if (input.feature_dim() != weights_.size()) {
    return Status::InvalidArgument(
        "feature dimension mismatch between fit and score inputs");
  }
  const core::FeatureMatrix& fm = input.pipe_feature_matrix;
  if (fm.num_rows() != input.num_pipes() || fm.dim != weights_.size()) {
    return ScorePipes(input);  // input without flat views: serial path
  }
  return core::ScoreBlocked(
      input.num_pipes(), options,
      [&](size_t begin, size_t end, double* out) {
        for (size_t i = begin; i < end; ++i) {
          double age =
              std::max(0, input.split.test_year - input.pipes[i]->laid_year);
          out[i - begin] = ExpectedFailures(fm.row(i), fm.dim, age, age + 1.0);
        }
      });
}

}  // namespace baselines
}  // namespace piperisk
