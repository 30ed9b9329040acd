// Workload `region_models`: the paper's own experiment on one region held in
// memory. Set-up generates a Region A-alike (Table 18.1 marginals), writes
// it as the CSV bundle, loads it back and builds the critical-water-main
// model input. Each round then fits and scores every model family and
// ranks and evaluates each fit; families that fit in well under a second
// are fitted several times a round, so they get many samples per run even
// though Weibull's fit takes seconds. The MCMC sampler (`core`) and the
// `baselines` do most of the work here.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cox.h"
#include "baselines/gbt.h"
#include "baselines/logistic.h"
#include "baselines/rank_model.h"
#include "baselines/rsf.h"
#include "baselines/weibull.h"
#include "bench.h"
#include "checks.h"
#include "core/dpmhbp.h"
#include "core/hbp.h"
#include "core/model.h"
#include "data/csv_io.h"
#include "data/failure_simulator.h"
#include "data/sharded_dataset.h"
#include "eval/ranking_metrics.h"
#include "eval/significance.h"

namespace perfbench {
namespace {

namespace core = piperisk::core;
namespace baselines = piperisk::baselines;
namespace data = piperisk::data;
namespace eval = piperisk::eval;

// Twelve sweeps per chain: short enough for many repetitions per run, long
// enough that DPMHBP still clearly outranks an age-only ranking.
constexpr int kBurnIn = 6;
constexpr int kSamples = 6;
constexpr int kChains = 4;
constexpr int kBootstrapReplicates = 40;
/// Each fit is ranked and evaluated this many times in a row.
constexpr int kEvalsPerFit = 2;
/// SVMrank's model seed, fixed whatever `--seed` is. The program's
/// RankModel ranks Region A at or below the age-only ranking for some seeds
/// only (about 2 in 100), so a seeded SVMrank would fail some runs' checks
/// and not others. With this seed it ranks below age-only in every run
/// (AUC(100%) 0.583 against 0.693, README.md): each SVMrank fit counts as a
/// failed operation, the same share of every run, and its other checks
/// still decide whether the run is correct.
constexpr std::uint64_t kSvmRankSeed = 119;

struct Family {
  const char* key;         ///< metric key: baselines.<key>.fit_s, ...
  const char* fit_span;    ///< span names
  const char* score_span;
  bool unit_interval;      ///< scores are probabilities
  /// Fits per round: families whose fit takes seconds (Weibull, RSF) run
  /// once, the rest several times, so each gets many samples per run.
  int fits_per_round;
  /// The family's fixed inputs make the program fail the ranking-skill
  /// check: a failed check counts its fits as failed operations instead of
  /// failing the run.
  bool skill_fault;
  std::function<std::unique_ptr<core::FailureModel>()> make;
};

std::vector<Family> Families(std::uint64_t seed, int threads) {
  core::HierarchyConfig h;
  h.burn_in = kBurnIn;
  h.samples = kSamples;
  h.num_chains = kChains;
  h.num_threads = threads;
  h.seed = seed;
  std::vector<Family> out;
  out.push_back({"dpmhbp", "core.dpmhbp.fit", "core.dpmhbp.score", true, 3,
                 false, [h] {
                   core::DpmhbpConfig c;
                   c.hierarchy = h;
                   return std::make_unique<core::DpmhbpModel>(c);
                 }});
  out.push_back({"hbp", "core.hbp.fit", "core.hbp.score", true, 3, false,
                 [h] {
                   return std::make_unique<core::HbpModel>(
                       core::GroupingScheme::kMaterial, h);
                 }});
  out.push_back({"cox", "baselines.cox.fit", "baselines.cox.score", false, 3,
                 false, [] { return std::make_unique<baselines::CoxModel>(); }});
  out.push_back({"weibull", "baselines.weibull.fit",
                 "baselines.weibull.score", false, 1, false,
                 [] { return std::make_unique<baselines::WeibullModel>(); }});
  out.push_back({"svm", "baselines.svm.fit", "baselines.svm.score", false, 3,
                 true, [] {
                   baselines::RankModelConfig c;
                   c.seed = kSvmRankSeed;
                   return std::make_unique<baselines::RankModel>(c);
                 }});
  out.push_back({"logistic", "baselines.logistic.fit",
                 "baselines.logistic.score", false, 3, false,
                 [] { return std::make_unique<baselines::LogisticModel>(); }});
  out.push_back({"rsf", "baselines.rsf.fit", "baselines.rsf.score", false, 1,
                 false, [seed, threads] {
                   baselines::RsfConfig c;
                   c.seed = seed + 3;
                   c.num_fit_threads = threads;
                   return std::make_unique<baselines::RsfModel>(c);
                 }});
  out.push_back({"gbt", "baselines.gbt.fit", "baselines.gbt.score", false, 3,
                 false, [seed, threads] {
                   baselines::GbtConfig c;
                   c.seed = seed + 4;
                   c.num_fit_threads = threads;
                   return std::make_unique<baselines::GbtModel>(c);
                 }});
  return out;
}

/// Timings of one fit and score, and of one evaluation of it.
struct FitTimes {
  double fit = 0.0, score = 0.0;
  bool traced = false;
};
struct EvalTimes {
  double rank = 0.0, metrics = 0.0, bootstrap = 0.0;
  bool traced = false;
  double total() const { return rank + metrics + bootstrap; }
};

/// What one family produced in one fit and its evaluations.
struct FamilyOutput {
  bool ok = false;
  std::vector<double> scores;
  double auc_full = 0.0, auc_1pct = 0.0;
  std::vector<double> bootstrap;
  bool operator==(const FamilyOutput& o) const {
    return ok == o.ok && scores == o.scores && auc_full == o.auc_full &&
           auc_1pct == o.auc_1pct && bootstrap == o.bootstrap;
  }
};

}  // namespace

bool RunRegionModels(const Options& options, Tracer* tracer, Checker* checker,
                     Report* report) {
  SpanLog* log = tracer->NewLog();

  // --- set-up ---------------------------------------------------------------
  double generate_s = 0.0, csv_load_s = 0.0, input_build_s = 0.0;
  // The region is the paper's Region A exactly as the experiments generate
  // it, so the deterministic fits (Cox, Weibull, logistic) do the same work
  // in every run; `--seed` seeds every stochastic model instead (MCMC
  // chains, forests, boosting, bootstrap; SVMrank's is fixed, see
  // kSvmRankSeed). Smoke runs use the Region A
  // template rescaled to 6000 pipes, which keeps enough test-year failures
  // for every metric.
  const data::RegionConfig config =
      options.smoke ? data::ShardRegionConfig(0, 1, 6000, 0.0)
                    : data::RegionConfig::RegionA();
  const std::string prefix = options.work_dir + "/region";
  {
    Section gen(log, "data.generate_region");
    auto generated = data::GenerateRegion(config);
    if (!generated.ok()) {
      std::fprintf(stderr, "perfbench: generate: %s\n",
                   generated.status().ToString().c_str());
      return false;
    }
    auto saved = data::SaveRegionDataset(*generated, prefix);
    if (!saved.ok()) {
      std::fprintf(stderr, "perfbench: save: %s\n", saved.ToString().c_str());
      return false;
    }
    generate_s = gen.Stop();
  }
  Section load(log, "data.csv_load");
  auto dataset = data::LoadRegionDataset(prefix);
  csv_load_s = load.Stop();
  if (!dataset.ok()) {
    std::fprintf(stderr, "perfbench: load: %s\n",
                 dataset.status().ToString().c_str());
    return false;
  }
  Section build(log, "core.input_build");
  auto input = core::ModelInput::Build(
      *dataset, data::TemporalSplit::Paper(),
      piperisk::net::PipeCategory::kCriticalMain,
      piperisk::net::FeatureConfig::DrinkingWater());
  input_build_s = build.Stop();
  if (!input.ok()) {
    std::fprintf(stderr, "perfbench: input: %s\n",
                 input.status().ToString().c_str());
    return false;
  }
  const double setup_s = SecondsBetween(options.process_start, Clock::now());
  const std::size_t num_pipes = input->num_pipes();
  std::vector<eval::ScoredPipe> base(num_pipes);
  std::vector<int> failures(num_pipes);
  for (std::size_t i = 0; i < num_pipes; ++i) {
    base[i].failures = input->outcomes[i].test_failures;
    base[i].length_m = input->outcomes[i].length_m;
    failures[i] = input->outcomes[i].test_failures;
  }
  std::printf("region_models: region %s (region seed %llu), model seed "
              "%llu, %zu CWM pipes, %zu segments, set-up %.3f s\n",
              config.name.c_str(),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(options.seed), num_pipes,
              input->num_segments(), setup_s);

  // --- measured phase -------------------------------------------------------
  const std::vector<Family> families = Families(options.seed, options.threads);
  const std::size_t nf = families.size();
  std::vector<std::vector<FitTimes>> fit_times(nf);    // [family][fit]
  std::vector<std::vector<EvalTimes>> eval_times(nf);  // [family][eval]
  std::vector<double> round_seconds, round_steal;
  std::vector<FamilyOutput> first(nf);  // each family's first outputs
  std::vector<bool> have_first(nf, false);
  std::vector<double> hit_ratio, dedup_ratio, sweeps_per_s, worker_share;
  std::vector<double> pool_tasks;
  bool outputs_match = true;
  std::int64_t attempted = 0, failed = 0;

  eval::PairedAucTestConfig boot;
  boot.bootstrap_replicates = kBootstrapReplicates;
  boot.num_threads = options.threads;
  boot.seed = options.seed + 5;
  eval::RankOptions rank_options;
  rank_options.num_threads = options.threads;
  core::ScoreOptions score_options;
  score_options.num_threads = options.threads;

  // One fit and score of family f, then kEvalsPerFit evaluations of it.
  // Returns false when any step failed.
  auto run_fit = [&](std::size_t f) {
    const Family& family = families[f];
    // In a traced run every other fit of a family records no spans, so the
    // run can report what tracing itself costs.
    const bool traced = options.trace && fit_times[f].size() % 2 == 0;
    log->set_enabled(traced);
    Section unit(log, "repetition");
    FitTimes ft;
    ft.traced = traced;
    // DPMHBP's sampler counters are read around its own fit only.
    const CounterSnapshot before =
        f == 0 ? CounterSnapshot::Take() : CounterSnapshot();
    std::unique_ptr<core::FailureModel> model = family.make();
    piperisk::Status fit_status;
    {
      Section s(log, family.fit_span);
      fit_status = model->Fit(*input);
      ft.fit = s.Stop();
    }
    piperisk::Result<std::vector<double>> scores =
        piperisk::Status::Internal("not scored");
    if (fit_status.ok()) {
      Section s(log, family.score_span);
      scores = model->ScorePipes(*input, score_options);
      ft.score = s.Stop();
    }
    if (!fit_status.ok() || !scores.ok()) {
      checker->Expect(false, std::string(family.key) + " fit/score: " +
                                 (fit_status.ok() ? scores.status().ToString()
                                                  : fit_status.ToString()));
      return false;
    }
    fit_times[f].push_back(ft);
    if (f == 0) {
      const CounterSnapshot after = CounterSnapshot::Take();
      const double hits = static_cast<double>(
          after.Counter("mcmc.likelihood_cache.hits") -
          before.Counter("mcmc.likelihood_cache.hits"));
      const double misses = static_cast<double>(
          after.Counter("mcmc.likelihood_cache.misses") -
          before.Counter("mcmc.likelihood_cache.misses"));
      const double classes = static_cast<double>(
          after.Counter("suffstats.classes") -
          before.Counter("suffstats.classes"));
      const double rows = static_cast<double>(
          after.Counter("suffstats.rows") - before.Counter("suffstats.rows"));
      if (hits + misses > 0) hit_ratio.push_back(hits / (hits + misses));
      if (rows > 0) dedup_ratio.push_back(classes / rows);
      sweeps_per_s.push_back(kChains * (kBurnIn + kSamples) / ft.fit);
    }
    FamilyOutput o;
    o.scores = std::move(*scores);
    if (o.scores.size() != num_pipes) {
      checker->Expect(false, std::string(family.key) + ": one score per pipe");
      return false;
    }
    std::vector<eval::ScoredPipe> scored = base;
    for (std::size_t i = 0; i < num_pipes; ++i) scored[i].score = o.scores[i];
    for (int e = 0; e < kEvalsPerFit; ++e) {
      EvalTimes et;
      et.traced = traced;
      Section s(log, "eval.rank_build");
      const eval::RankedScores ranked =
          eval::RankedScores::Build(scored, rank_options);
      et.rank = s.Stop();
      Section m(log, "eval.metrics");
      auto full = ranked.Auc(eval::BudgetMode::kPipeCount, 1.0);
      auto one = ranked.Auc(eval::BudgetMode::kPipeCount, 0.01);
      auto det = ranked.DetectedAtBudget(eval::BudgetMode::kLength, 0.01);
      et.metrics = m.Stop();
      Section b(log, "eval.bootstrap");
      auto samples = eval::BootstrapAucSamples(ranked, boot);
      et.bootstrap = b.Stop();
      if (!full.ok() || !one.ok() || !det.ok() || !samples.ok()) {
        checker->Expect(false, std::string(family.key) + " evaluation");
        return false;
      }
      eval_times[f].push_back(et);
      if (e == 0) {
        o.auc_full = full->normalised;
        o.auc_1pct = one->normalised;
        o.bootstrap = std::move(*samples);
      } else {
        outputs_match = outputs_match && full->normalised == o.auc_full &&
                        one->normalised == o.auc_1pct &&
                        *samples == o.bootstrap;
      }
    }
    o.ok = true;
    // Every later fit's outputs must equal the family's first bit for bit.
    if (!have_first[f]) {
      first[f] = std::move(o);
      have_first[f] = true;
    } else {
      outputs_match = outputs_match && o == first[f];
    }
    return true;
  };

  RssSampler rss;
  const Clock::time_point measure_start = Clock::now();
  const int min_rounds = options.smoke ? 2 : 3;
  for (int round = 0;; ++round) {
    const double elapsed = SecondsBetween(measure_start, Clock::now());
    if (round >= min_rounds && elapsed >= options.seconds) break;
    log->set_rep(round);
    const CounterSnapshot round_before = CounterSnapshot::Take();
    const HostTicks ticks_before = HostTicks::Read();
    const Clock::time_point round_start = Clock::now();
    for (std::size_t f = 0; f < nf; ++f) {
      for (int k = 0; k < families[f].fits_per_round; ++k) {
        ++attempted;
        if (!run_fit(f)) ++failed;
      }
    }
    round_seconds.push_back(SecondsBetween(round_start, Clock::now()));
    round_steal.push_back(StealShare(ticks_before, HostTicks::Read()));
    PoolShare(round_before, CounterSnapshot::Take(), &pool_tasks,
              &worker_share);
  }
  const double peak_rss_mb = rss.StopPeakMb();
  const double measured_s = SecondsBetween(measure_start, Clock::now());
  const int rounds = static_cast<int>(round_seconds.size());

  // --- verification (untimed) -----------------------------------------------
  checker->Expect(outputs_match,
                  "repeated fits and evaluations with one seed give "
                  "bit-identical scores, AUCs and bootstrap samples");
  std::vector<double> age(num_pipes);
  for (std::size_t i = 0; i < num_pipes; ++i) {
    age[i] = static_cast<double>(input->split.test_year -
                                 input->pipes[i]->laid_year);
  }
  const double age_auc = ReferenceDetectionAuc(age, failures, 1.0);
  std::printf("region_models: age-only AUC(100%%) %.4f\n", age_auc);
  for (std::size_t f = 0; f < nf; ++f) {
    const FamilyOutput& o = first[f];
    const std::string key = families[f].key;
    if (!o.ok) continue;
    checker->Expect(families[f].unit_interval
                        ? AllFiniteIn(o.scores, 0.0, 1.0)
                        : AllFiniteIn(o.scores, 1.0, 0.0),
                    key + ": scores finite" +
                        (families[f].unit_interval ? " and in [0, 1]" : ""));
    const double ref_full = ReferenceDetectionAuc(o.scores, failures, 1.0);
    const double ref_1pct = ReferenceDetectionAuc(o.scores, failures, 0.01);
    checker->Expect(std::abs(ref_full - o.auc_full) <= 1e-12,
                    key + ": AUC(100%) matches the reference curve");
    checker->Expect(std::abs(ref_1pct - o.auc_1pct) <= 1e-12,
                    key + ": AUC(1%) matches the reference curve");
    if (o.auc_full > age_auc || !families[f].skill_fault) {
      checker->Expect(o.auc_full > age_auc,
                      key + ": AUC(100%) beats the age-only ranking");
    } else {
      failed += static_cast<std::int64_t>(fit_times[f].size());
      std::printf("region_models: %s AUC(100%%) %.4f does not beat the "
                  "age-only ranking: its %zu fits count as failed\n",
                  key.c_str(), o.auc_full, fit_times[f].size());
    }
    checker->Expect(o.bootstrap.size() ==
                            static_cast<std::size_t>(kBootstrapReplicates) &&
                        AllFiniteIn(o.bootstrap, 0.0, 1.0),
                    key + ": bootstrap AUCs complete and in [0, 1]");
    std::printf("region_models: %-9s AUC(100%%) %.4f AUC(1%%) %.4f, %zu "
                "fits, fit + score s:",
                key.c_str(), o.auc_full, o.auc_1pct, fit_times[f].size());
    for (const FitTimes& t : fit_times[f]) {
      std::printf(" %.3f", t.fit + t.score);
    }
    std::printf("\n");
  }

  // --- metrics --------------------------------------------------------------
  report->attempted = attempted;
  report->failed = failed;
  std::printf("region_models: %d rounds in %.1f s, seconds each (host "
              "steal share):",
              rounds, measured_s);
  for (int r = 0; r < rounds; ++r) {
    std::printf(" %.3f (%.2f)", round_seconds[static_cast<std::size_t>(r)],
                round_steal[static_cast<std::size_t>(r)]);
  }
  std::printf("\n");
  // Robust statistic over one family's fits (or evaluations): the lower
  // quartile, which stays on the host's fast level as long as most of the
  // run is. `which` picks all samples (-1), traced (1) or untraced (0) ones.
  auto fit_lq = [&](std::size_t f, double (*value)(const FitTimes&),
                    int which) {
    std::vector<double> v;
    for (const FitTimes& t : fit_times[f]) {
      if (which < 0 || t.traced == (which == 1)) v.push_back(value(t));
    }
    return LowerQuartile(v);
  };
  auto eval_lq = [&](std::size_t f, double (*value)(const EvalTimes&),
                     int which) {
    std::vector<double> v;
    for (const EvalTimes& t : eval_times[f]) {
      if (which < 0 || t.traced == (which == 1)) v.push_back(value(t));
    }
    return LowerQuartile(v);
  };
  auto fit_score = [](const FitTimes& t) { return t.fit + t.score; };
  auto fit_only = [](const FitTimes& t) { return t.fit; };
  auto score_only = [](const FitTimes& t) { return t.score; };
  auto eval_total = [](const EvalTimes& t) { return t.total(); };
  // Each family's own lower quartile, summed over the families: one
  // family's fast fits need not coincide with another's.
  double baselines = 0.0, evaluate = 0.0;
  for (std::size_t f = 1; f < nf; ++f) baselines += fit_lq(f, fit_score, -1);
  for (std::size_t f = 0; f < nf; ++f) evaluate += eval_lq(f, eval_total, -1);
  const double dpmhbp_fit_s = fit_lq(0, fit_score, -1);
  if (!options.trace) {
    report->Add("setup_s", setup_s, "s");
    report->Add("peak_rss_mb", peak_rss_mb, "MB");
    report->Add("build_s", dpmhbp_fit_s + baselines, "s");
    report->Add("query_s", evaluate, "s");
    report->Detail("dpmhbp_fit_s", dpmhbp_fit_s, "s");
    report->Detail("baselines_fit_s", baselines, "s");
    return true;
  }
  // Per call, over the traced evaluations of every family.
  auto per_call = [&](double EvalTimes::*field) {
    std::vector<double> v;
    for (std::size_t f = 0; f < nf; ++f) {
      for (const EvalTimes& t : eval_times[f]) {
        if (t.traced) v.push_back(t.*field);
      }
    }
    return Median(v);
  };
  report->Add("data.generate_s", generate_s, "s");
  report->Add("data.load_s", csv_load_s, "s");
  report->Add("core.fit_s", fit_lq(0, fit_only, 1), "s");
  report->Add("core.score_s", fit_lq(0, score_only, 1), "s");
  report->Add("eval.rank_build_s", per_call(&EvalTimes::rank), "s");
  report->Add("threadpool.tasks", Median(pool_tasks), "count");
  report->Add("threadpool.worker_share", Median(worker_share), "ratio");
  report->Detail("core.input_build_s", input_build_s, "s");
  report->Detail("core.dpmhbp.sweeps_per_s", Median(sweeps_per_s), "1/s");
  report->Detail("mcmc.likelihood_cache.hit_ratio", Median(hit_ratio),
                 "ratio");
  report->Detail("suffstats.dedup_ratio", Median(dedup_ratio), "ratio");
  report->Detail("core.hbp.fit_s", fit_lq(1, fit_only, 1), "s");
  for (std::size_t f = 2; f < nf; ++f) {
    const std::string key = std::string("baselines.") + families[f].key;
    report->Detail(key + ".fit_s", fit_lq(f, fit_only, 1), "s");
    report->Detail(key + ".score_s", fit_lq(f, score_only, 1), "s");
  }
  report->Detail("eval.metrics_s", per_call(&EvalTimes::metrics), "s");
  report->Detail("eval.bootstrap_s", per_call(&EvalTimes::bootstrap), "s");
  // Tracing overhead: every family's traced fits (with their evaluations)
  // against its untraced ones, summed over the families.
  double traced_s = 0.0, untraced_s = 0.0;
  for (std::size_t f = 0; f < nf; ++f) {
    traced_s += fit_lq(f, fit_score, 1) + eval_lq(f, eval_total, 1);
    untraced_s += fit_lq(f, fit_score, 0) + eval_lq(f, eval_total, 0);
  }
  report->Add("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0),
              "%");
  return true;
}

}  // namespace perfbench
