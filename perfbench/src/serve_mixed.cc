// Workload `serve_mixed`: the scoring server under mixed reads and writes.
// Set-up makes the program's own served scores (a network generated from
// `--seed`, fitted and scored by the streaming HBP and joined exactly as
// `serve --data-dir` builds its index), tiles them to a one-million-pipe
// index and starts the server. Two connections then send an open-loop
// request stream at a fixed rate (80% score, 15% top-100, 5% what-if) while
// a reloader rebuilds and publishes a new snapshot generation every three
// seconds; a closed-loop phase on the same connections follows and measures
// capacity. `serve` and `eval`'s rank index under concurrent readers are
// exercised here and nowhere else; `core` does no measured work.
//
// Each open-loop request is timed from the moment it was due, so a stall
// also counts against the requests queued behind it.

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/streaming_hbp.h"
#include "data/sharded_dataset.h"
#include "eval/streaming_eval.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stats/rng.h"

namespace perfbench {
namespace {

namespace core = piperisk::core;
namespace data = piperisk::data;
namespace eval = piperisk::eval;
namespace serve = piperisk::serve;

constexpr std::uint32_t kPipes = 1000000;
/// Above the rank sort's 2^16-pipe block, so smoke reloads rank on the
/// thread pool as full runs do.
constexpr std::uint32_t kSmokePipes = 100000;
/// The network whose streamed scores are tiled into the index: ~25 000
/// critical mains. Streaming-HBP scores depend on a pipe's group and its
/// (k, n) training counts only, so a larger network adds almost no distinct
/// scores; tiling keeps the program's tie structure.
constexpr int kSourceRegions = 4;
constexpr int kSourcePipesPerRegion = 25000;
constexpr int kSmokeSourcePipes = 8000;
constexpr std::uint64_t kModelSeed = 2013;
constexpr int kConnections = 2;
/// Open-loop arrival rate over both connections: about a third of their
/// closed-loop capacity, so a 1.5-1.8x slow stretch of the host builds no
/// backlog.
constexpr double kOpenRatePerS = 20000.0;
/// A reload rebuilds the whole index on every pool thread and stalls the
/// connections for a moment (see the latency metrics below), so reloads
/// come often enough to give about sixteen in a 50-s run but leave most
/// 1-s slices clear of them.
constexpr double kReloadPeriodS = 3.0;
constexpr double kSmokeReloadPeriodS = 0.25;
constexpr std::uint32_t kTopK = 100;
constexpr double kWhatIfScale = 2.0;
constexpr double kUnitCost = 40.0;
/// Share of the measured time spent in the open-loop phase; the closed-loop
/// capacity phase takes the rest.
constexpr double kOpenShare = 0.6;
/// One in this many score/what-if answers has its rank and percentile
/// re-derived after the run; one in kTopKSampleEvery top-K answers is
/// compared whole against the benchmark's own top-K.
constexpr int kRankSampleEvery = 50;
constexpr int kTopKSampleEvery = 20;

/// The arrays one snapshot generation is built from.
struct SnapshotArrays {
  std::vector<std::uint64_t> ids;
  std::vector<double> scores;
  std::vector<double> lengths;
};

/// The score index of every generation, derived from one base table that
/// tiles the program's streamed scores and lengths: generation g serves
/// base[(i + g * kStride) mod n] for pipe i, so each reload re-ranks the
/// whole network and the benchmark can recompute any generation's answer
/// without storing it.
class ScoreTable {
 public:
  ScoreTable(std::uint32_t n, const eval::StreamedScoredPipes& streamed)
      : base_(n), length_(n) {
    const std::size_t m = streamed.scores.size();
    for (std::uint32_t i = 0; i < n; ++i) {
      base_[i] = streamed.scores[i % m];
      length_[i] = streamed.lengths_m[i % m];
    }
  }
  std::uint32_t size() const { return static_cast<std::uint32_t>(base_.size()); }
  static std::uint64_t IdOf(std::uint32_t i) { return 100 + 7ULL * i; }
  static bool IndexOf(std::uint64_t id, std::uint32_t n, std::uint32_t* i) {
    if (id < 100 || (id - 100) % 7 != 0 || (id - 100) / 7 >= n) return false;
    *i = static_cast<std::uint32_t>((id - 100) / 7);
    return true;
  }
  double Score(std::uint64_t generation, std::uint32_t i) const {
    const std::uint64_t n = base_.size();
    return base_[(i + (generation % n) * kStride % n) % n];
  }
  /// Everything generation `generation` is built from, prepared outside
  /// the timed rebuild.
  SnapshotArrays Arrays(std::uint64_t generation) const {
    SnapshotArrays a{std::vector<std::uint64_t>(base_.size()),
                     std::vector<double>(base_.size()), length_};
    for (std::uint32_t i = 0; i < size(); ++i) {
      a.ids[i] = IdOf(i);
      a.scores[i] = Score(generation, i);
    }
    return a;
  }

 private:
  static constexpr std::uint64_t kStride = 7919;
  std::vector<double> base_;
  std::vector<double> length_;
};

piperisk::Result<std::shared_ptr<const serve::ScoreSnapshot>> BuildSnapshot(
    SnapshotArrays arrays, std::uint64_t generation) {
  return serve::ScoreSnapshot::Build(std::move(arrays.ids),
                                     std::move(arrays.scores),
                                     std::move(arrays.lengths), generation,
                                     kUnitCost);
}

/// Set-up's calls into the library, in seconds.
struct SetupTimes {
  double generate = 0.0;
  double load = 0.0;  ///< shard open + mmap/validation summed over threads
  double fit = 0.0, score = 0.0, join = 0.0;
};

/// The program's served scores for a network generated from `seed`: the
/// streaming HBP fit and score files joined back onto the shards, as
/// `serve --data-dir` does.
piperisk::Result<eval::StreamedScoredPipes> ProgramScores(
    const Options& options, SpanLog* log, SetupTimes* times) {
  data::ShardedGenerateOptions gen;
  gen.regions = options.smoke ? 1 : kSourceRegions;
  gen.pipes_per_region =
      options.smoke ? kSmokeSourcePipes : kSourcePipesPerRegion;
  gen.seed = options.seed;
  gen.threads = options.threads;
  gen.out_dir = options.work_dir + "/shards";
  {
    Section s(log, "data.shard_generate");
    PIPERISK_RETURN_IF_ERROR(data::GenerateShardedDataset(gen).status());
    times->generate = s.Stop();
  }
  const CounterSnapshot before = CounterSnapshot::Take();
  Section open(log, "data.shard_open");
  auto shards = data::ShardedDataset::Open(gen.out_dir);
  const double open_s = open.Stop();
  PIPERISK_RETURN_IF_ERROR(shards.status());
  core::StreamingHbpOptions fit_options;
  fit_options.hierarchy.num_threads = options.threads;
  fit_options.hierarchy.seed = kModelSeed;
  fit_options.shard_window = options.threads;
  Section fit_span(log, "core.streaming_hbp.fit");
  auto fit = core::FitStreamingHbp(*shards, fit_options);
  times->fit = fit_span.Stop();
  PIPERISK_RETURN_IF_ERROR(fit.status());
  const std::string scores_path = options.work_dir + "/scores.csv";
  Section score_span(log, "core.streaming_hbp.score");
  const piperisk::Status scored =
      core::ScoreStreamingHbp(*shards, *fit, fit_options, scores_path);
  times->score = score_span.Stop();
  PIPERISK_RETURN_IF_ERROR(scored);
  Section join_span(log, "eval.streamed_join");
  auto streamed = eval::BuildStreamedScoredPipes(
      *shards, fit_options.category, scores_path, options.threads);
  times->join = join_span.Stop();
  const CounterSnapshot after = CounterSnapshot::Take();
  times->load = open_s + (after.HistogramSum("data.shard.load_us") -
                          before.HistogramSum("data.shard.load_us")) /
                             1e6;
  return streamed;
}

enum class Verb { kScore, kTopK, kWhatIf };

/// A served rank/percentile kept for the post-run check.
struct RankSample {
  std::uint64_t generation;
  std::uint32_t index;
  std::uint64_t rank;
  double percentile;
};

struct TopKSample {
  std::uint64_t generation;
  std::vector<std::uint64_t> ids;
};

/// One connection's record of the run.
struct ConnectionResult {
  std::vector<float> latency_us[3];  ///< open loop, by verb, from due time
  std::vector<float> all_latency_us;
  std::vector<std::uint16_t> all_slice;  ///< 1-s slice of each request
  std::vector<float> send_lag_us;
  std::vector<float> traced_us, untraced_us;  ///< traced runs: by parity
  std::vector<std::int64_t> closed_per_slice;
  std::vector<RankSample> ranks;
  std::vector<TopKSample> topks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;  ///< answers that disagree with the benchmark
  std::string first_error;
};

class Connection {
 public:
  Connection(const ScoreTable& table, ConnectionResult* result)
      : table_(table), r_(result) {}

  /// Sends one request and checks the answer. Returns false on failure.
  bool Send(serve::Client& client, Verb verb, std::uint32_t index) {
    ++r_->attempted;
    const std::uint64_t id = ScoreTable::IdOf(index);
    switch (verb) {
      case Verb::kScore: {
        auto resp = client.Score(id);
        if (!resp.ok()) return Fail(resp.status().ToString());
        Expect(NextGeneration(resp->generation) &&
                   resp->score == table_.Score(resp->generation, index) &&
                   resp->num_pipes == table_.size(),
               "score answer");
        if (++score_count_ % kRankSampleEvery == 0) {
          r_->ranks.push_back(
              {resp->generation, index, resp->rank, resp->percentile});
        }
        return true;
      }
      case Verb::kTopK: {
        auto resp = client.TopK(kTopK);
        if (!resp.ok()) return Fail(resp.status().ToString());
        bool ok = NextGeneration(resp->generation) &&
                  resp->entries.size() == kTopK;
        for (std::size_t k = 0; ok && k < resp->entries.size(); ++k) {
          std::uint32_t i = 0;
          ok = ScoreTable::IndexOf(resp->entries[k].pipe_id, table_.size(),
                                   &i) &&
               resp->entries[k].score == table_.Score(resp->generation, i) &&
               (k == 0 ||
                resp->entries[k].score <= resp->entries[k - 1].score);
        }
        Expect(ok, "top-K answer");
        if (++topk_count_ % kTopKSampleEvery == 0) {
          TopKSample s{resp->generation, {}};
          for (const auto& e : resp->entries) s.ids.push_back(e.pipe_id);
          r_->topks.push_back(std::move(s));
        }
        return true;
      }
      case Verb::kWhatIf: {
        auto resp = client.WhatIf(id, serve::WhatIfMode::kScale, kWhatIfScale);
        if (!resp.ok()) return Fail(resp.status().ToString());
        const double old_score = table_.Score(resp->generation, index);
        Expect(NextGeneration(resp->generation) &&
                   resp->old_score == old_score &&
                   resp->new_score == old_score * kWhatIfScale,
               "what-if answer");
        if (++whatif_count_ % kRankSampleEvery == 0) {
          r_->ranks.push_back(
              {resp->generation, index, resp->old_rank, resp->old_percentile});
        }
        return true;
      }
    }
    return false;
  }

 private:
  bool NextGeneration(std::uint64_t generation) {
    // Generations never go backwards on one connection.
    const bool ok = generation >= last_generation_;
    last_generation_ = std::max(last_generation_, generation);
    return ok;
  }
  bool Fail(const std::string& why) {
    ++r_->failed;
    if (r_->first_error.empty()) r_->first_error = why;
    return false;
  }
  void Expect(bool ok, const char* what) {
    if (!ok) {
      ++r_->wrong;
      if (r_->first_error.empty()) r_->first_error = what;
    }
  }

  const ScoreTable& table_;
  ConnectionResult* r_;
  std::uint64_t last_generation_ = 0;
  std::int64_t score_count_ = 0, topk_count_ = 0, whatif_count_ = 0;
};

Verb PickVerb(piperisk::stats::Rng& rng) {
  const std::uint64_t mix = rng.NextBounded(100);
  return mix < 80 ? Verb::kScore : mix < 95 ? Verb::kTopK : Verb::kWhatIf;
}

/// Sleeps to just before `t`, then spins the last microseconds: a sleep
/// with 1 ns timer slack overshoots by ~7 us typically and ~16 us at p99.
void WaitUntil(Clock::time_point t) {
  const auto margin = std::chrono::microseconds(25);
  if (Clock::now() + margin < t) std::this_thread::sleep_until(t - margin);
  while (Clock::now() < t) {
  }
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double FloatQuantile(const std::vector<float>& v, double q) {
  return Quantile(std::vector<double>(v.begin(), v.end()), q);
}

/// Composite order of the rank index: score descending, index ascending.
struct Ranked {
  double score;
  std::uint32_t index;
  bool operator<(const Ranked& o) const {
    return score != o.score ? score > o.score : index < o.index;
  }
};

}  // namespace

bool RunServeMixed(const Options& options, Tracer* tracer, Checker* checker,
                   Report* report) {
  SpanLog* main_log = tracer->NewLog();
  const std::uint32_t n = options.smoke ? kSmokePipes : kPipes;

  // --- set-up ---------------------------------------------------------------
  SetupTimes setup_times;
  auto streamed = ProgramScores(options, main_log, &setup_times);
  if (!streamed.ok() || streamed->scores.empty()) {
    std::fprintf(stderr, "perfbench: program scores: %s\n",
                 streamed.ok() ? "no pipes"
                               : streamed.status().ToString().c_str());
    return false;
  }
  const ScoreTable table(n, *streamed);
  SnapshotArrays initial_arrays = table.Arrays(1);
  Section build_span(main_log, "serve.snapshot_build");
  auto initial = BuildSnapshot(std::move(initial_arrays), 1);
  const double initial_build_s = build_span.Stop();
  if (!initial.ok()) {
    std::fprintf(stderr, "perfbench: snapshot: %s\n",
                 initial.status().ToString().c_str());
    return false;
  }
  serve::ServerOptions server_options;
  server_options.seed = options.seed;
  auto server = serve::Server::Start(server_options, *initial);
  if (!server.ok()) {
    std::fprintf(stderr, "perfbench: server: %s\n",
                 server.status().ToString().c_str());
    return false;
  }
  initial->reset();  // the server owns the index from here on
  std::vector<serve::Client> clients;
  for (int c = 0; c < kConnections; ++c) {
    auto client = serve::Client::Connect("127.0.0.1", (*server)->port());
    if (!client.ok() || !client->Ping().ok()) {
      std::fprintf(stderr, "perfbench: connect failed\n");
      return false;
    }
    clients.push_back(std::move(*client));
  }
  const double setup_s = SecondsBetween(options.process_start, Clock::now());
  // The tie structure of the served scores (untimed).
  std::size_t distinct = 0, largest_tie = 0;
  {
    std::vector<double> sorted(n);
    for (std::uint32_t i = 0; i < n; ++i) sorted[i] = table.Score(1, i);
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0, j = 0; i < n; i = j) {
      while (j < n && sorted[j] == sorted[i]) ++j;
      ++distinct;
      largest_tie = std::max(largest_tie, j - i);
    }
  }
  std::printf("serve_mixed: %u pipes tiled from %zu streamed scores (seed "
              "%llu), %zu distinct scores, largest tie group %zu pipes; %d "
              "connections, open loop %.0f req/s, reload every %.1f s, "
              "set-up %.3f s\n",
              n, streamed->scores.size(),
              static_cast<unsigned long long>(options.seed), distinct,
              largest_tie, kConnections, kOpenRatePerS,
              options.smoke ? kSmokeReloadPeriodS : kReloadPeriodS, setup_s);

  // --- measured phase -------------------------------------------------------
  const double open_s = options.seconds * kOpenShare;
  const int closed_slices =
      std::max(1, static_cast<int>(options.seconds - open_s));
  const CounterSnapshot before = CounterSnapshot::Take();
  const HostTicks ticks_before = HostTicks::Read();
  RssSampler rss;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point open_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(open_s));
  const Clock::time_point closed_end =
      open_end + std::chrono::seconds(closed_slices);

  std::vector<ConnectionResult> results(kConnections);
  std::vector<SpanLog*> logs;
  for (int c = 0; c < kConnections; ++c) logs.push_back(tracer->NewLog());
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ConnectionResult& r = results[static_cast<std::size_t>(c)];
      SpanLog* log = logs[static_cast<std::size_t>(c)];
      serve::Client& client = clients[static_cast<std::size_t>(c)];
      // Sleep precisely: this thread's timer slack drops from the 50 us
      // default to 1 ns, so the generator idles between requests instead
      // of spinning and competing with the server for cores.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Connection conn(table, &r);
      piperisk::stats::Rng rng(options.seed * 1000 + static_cast<std::uint64_t>(c));
      // Open loop: this connection's requests are due every `interval`,
      // offset by half an interval from the other connection's.
      const double interval_s = kConnections / kOpenRatePerS;
      for (std::int64_t k = 0;; ++k) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            (static_cast<double>(k) +
                             static_cast<double>(c) / kConnections) *
                            interval_s));
        if (due >= open_end) break;
        WaitUntil(due);
        const Clock::time_point sent = Clock::now();
        const int slice = static_cast<int>(SecondsBetween(start, due));
        // Traced runs record spans for every other request only, so the
        // run can report what tracing costs.
        const bool traced = options.trace && k % 2 == 0;
        log->set_enabled(traced);
        log->set_rep(slice);
        const Verb verb = PickVerb(rng);
        const std::uint32_t index =
            static_cast<std::uint32_t>(rng.NextBounded(n));
        bool ok;
        {
          Section s(log, verb == Verb::kScore  ? "serve.request.score"
                         : verb == Verb::kTopK ? "serve.request.topk"
                                               : "serve.request.whatif");
          ok = conn.Send(client, verb, index);
        }
        const Clock::time_point done = Clock::now();
        r.send_lag_us.push_back(static_cast<float>(Micros(sent - due)));
        if (ok) {
          const float us = static_cast<float>(Micros(done - due));
          r.latency_us[static_cast<int>(verb)].push_back(us);
          r.all_latency_us.push_back(us);
          r.all_slice.push_back(static_cast<std::uint16_t>(slice));
          (traced ? r.traced_us : r.untraced_us).push_back(us);
        }
      }
      // Closed loop on the same connection: the next request goes out as
      // soon as the previous answer is in.
      log->set_enabled(false);
      r.closed_per_slice.assign(static_cast<std::size_t>(closed_slices), 0);
      WaitUntil(open_end);
      for (;;) {
        const Clock::time_point now = Clock::now();
        if (now >= closed_end) break;
        const int slice = static_cast<int>(SecondsBetween(open_end, now));
        const Verb verb = PickVerb(rng);
        const std::uint32_t index =
            static_cast<std::uint32_t>(rng.NextBounded(n));
        if (conn.Send(client, verb, index) && Clock::now() < closed_end) {
          ++r.closed_per_slice[static_cast<std::size_t>(slice)];
        }
      }
    });
  }

  // Reloads: rebuild the next generation off the serving path and publish.
  const double reload_period_s =
      options.smoke ? kSmokeReloadPeriodS : kReloadPeriodS;
  std::vector<double> reload_s, snapshot_build_s;
  std::uint64_t generation = 1;
  std::int64_t reload_failures = 0;
  for (int k = 1;; ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(k * reload_period_s));
    if (due >= closed_end) break;
    // The arrays are the benchmark's work and are ready before the timer
    // starts: only the rebuild and the publish are timed.
    SnapshotArrays arrays = table.Arrays(generation + 1);
    std::this_thread::sleep_until(due);
    Section reload(main_log, "serve.reload");
    Section build(main_log, "serve.snapshot_build");
    auto next = BuildSnapshot(std::move(arrays), generation + 1);
    const double built = build.Stop();
    if (!next.ok()) {
      ++reload_failures;
      continue;
    }
    {
      Section publish(main_log, "serve.publish");
      (*server)->Publish(std::move(*next));
    }
    ++generation;
    reload_s.push_back(reload.Stop());
    snapshot_build_s.push_back(built);
  }
  for (std::thread& t : threads) t.join();
  const double steal = StealShare(ticks_before, HostTicks::Read());
  const double peak_rss_mb = rss.StopPeakMb();
  const CounterSnapshot after = CounterSnapshot::Take();
  (*server)->Stop();

  // --- verification (untimed) -----------------------------------------------
  std::int64_t attempted = static_cast<std::int64_t>(reload_s.size()) +
                           reload_failures;
  std::int64_t failed = reload_failures;
  std::int64_t wrong = 0;
  std::map<std::uint64_t, std::vector<const RankSample*>> rank_by_gen;
  std::map<std::uint64_t, std::vector<const TopKSample*>> topk_by_gen;
  for (const ConnectionResult& r : results) {
    attempted += r.attempted;
    failed += r.failed;
    wrong += r.wrong;
    if (!r.first_error.empty()) {
      std::fprintf(stderr, "perfbench: connection: %s\n",
                   r.first_error.c_str());
    }
    for (const RankSample& s : r.ranks) rank_by_gen[s.generation].push_back(&s);
    for (const TopKSample& s : r.topks) topk_by_gen[s.generation].push_back(&s);
  }
  checker->Expect(wrong == 0,
                  "served scores equal the benchmark's copy of their "
                  "generation, top-K lists are non-increasing, generations "
                  "never go backwards (" +
                      std::to_string(wrong) + " answers disagree)");
  checker->Expect(failed == 0, "no request or reload failed");
  std::int64_t ranks_checked = 0, ranks_wrong = 0;
  for (const auto& [gen, samples] : rank_by_gen) {
    // Tie-aware count: rank = pipes ahead in the composite order;
    // percentile = (pipes scored lower + half the tie group) / n.
    std::vector<Ranked> sorted(n);
    for (std::uint32_t i = 0; i < n; ++i) sorted[i] = {table.Score(gen, i), i};
    std::sort(sorted.begin(), sorted.end());
    for (const RankSample* s : samples) {
      const Ranked key{table.Score(gen, s->index), s->index};
      const auto pos = std::lower_bound(sorted.begin(), sorted.end(), key);
      const auto group = std::equal_range(
          sorted.begin(), sorted.end(), key,
          [](const Ranked& a, const Ranked& b) { return a.score > b.score; });
      const double below = static_cast<double>(sorted.end() - group.second);
      const double ties = static_cast<double>(group.second - group.first);
      const double percentile = (below + 0.5 * ties) / n;
      ++ranks_checked;
      if (static_cast<std::uint64_t>(pos - sorted.begin()) != s->rank ||
          percentile != s->percentile) {
        ++ranks_wrong;
      }
    }
  }
  checker->Expect(ranks_checked > 0 && ranks_wrong == 0,
                  "sampled ranks and percentiles equal the tie-aware count (" +
                      std::to_string(ranks_wrong) + " of " +
                      std::to_string(ranks_checked) + " differ)");
  std::int64_t topks_checked = 0, topks_wrong = 0;
  for (const auto& [gen, samples] : topk_by_gen) {
    std::vector<Ranked> all(n);
    for (std::uint32_t i = 0; i < n; ++i) all[i] = {table.Score(gen, i), i};
    std::nth_element(all.begin(), all.begin() + kTopK, all.end());
    std::sort(all.begin(), all.begin() + kTopK);
    for (const TopKSample* s : samples) {
      ++topks_checked;
      bool same = s->ids.size() == kTopK;
      for (std::uint32_t k = 0; same && k < kTopK; ++k) {
        same = s->ids[k] == ScoreTable::IdOf(all[k].index);
      }
      if (!same) ++topks_wrong;
    }
  }
  checker->Expect(topks_checked > 0 && topks_wrong == 0,
                  "sampled top-K lists equal the benchmark's nth_element "
                  "top-K (" +
                      std::to_string(topks_wrong) + " of " +
                      std::to_string(topks_checked) + " differ)");
  checker->Expect(!reload_s.empty(), "at least one reload under load");

  // --- metrics --------------------------------------------------------------
  std::vector<float> all_latency, send_lag, by_verb[3];
  std::vector<float> traced_latency, untraced_latency;
  std::vector<double> closed_rps;
  for (const ConnectionResult& r : results) {
    all_latency.insert(all_latency.end(), r.all_latency_us.begin(),
                       r.all_latency_us.end());
    send_lag.insert(send_lag.end(), r.send_lag_us.begin(),
                    r.send_lag_us.end());
    for (int v = 0; v < 3; ++v) {
      by_verb[v].insert(by_verb[v].end(), r.latency_us[v].begin(),
                        r.latency_us[v].end());
    }
    traced_latency.insert(traced_latency.end(), r.traced_us.begin(),
                          r.traced_us.end());
    untraced_latency.insert(untraced_latency.end(), r.untraced_us.begin(),
                            r.untraced_us.end());
  }
  // Per 1-s slice of the open-loop phase: p50 and p99 from due time.
  std::vector<std::vector<float>> slice_latency;
  for (const ConnectionResult& r : results) {
    for (std::size_t i = 0; i < r.all_slice.size(); ++i) {
      if (r.all_slice[i] >= slice_latency.size()) {
        slice_latency.resize(r.all_slice[i] + 1u);
      }
      slice_latency[r.all_slice[i]].push_back(r.all_latency_us[i]);
    }
  }
  std::vector<double> slice_p50;
  std::printf("serve_mixed: open-loop p50/p99 us per 1-s slice:");
  for (const std::vector<float>& v : slice_latency) {
    slice_p50.push_back(FloatQuantile(v, 0.50));
    std::printf(" %.0f/%.0f", slice_p50.back(), FloatQuantile(v, 0.99));
  }
  std::printf("\n");
  for (int s = 0; s < closed_slices; ++s) {
    double total = 0.0;
    for (const ConnectionResult& r : results) {
      total += static_cast<double>(r.closed_per_slice[static_cast<std::size_t>(s)]);
    }
    closed_rps.push_back(total);
  }
  const double requests = static_cast<double>(after.Counter("serve.requests") -
                                              before.Counter("serve.requests"));
  const double bytes_out = static_cast<double>(
      after.Counter("serve.bytes_out") - before.Counter("serve.bytes_out"));
  std::printf("serve_mixed: %zu open-loop requests, closed-loop slices "
              "(req/s):", all_latency.size());
  for (double v : closed_rps) std::printf(" %.0f", v);
  std::printf("; %zu reloads, generation %llu; host steal share %.2f\n",
              reload_s.size(), static_cast<unsigned long long>(generation),
              steal);
  report->attempted = attempted;
  report->failed = failed;
  if (!options.trace) {
    // Seconds per 10^4 requests in each 1-s slice of the closed loop.
    std::vector<double> per_10k;
    for (double rps : closed_rps) {
      per_10k.push_back(rps > 0 ? 1e4 / rps : HUGE_VAL);
    }
    report->Add("setup_s", setup_s, "s");
    report->Add("peak_rss_mb", peak_rss_mb, "MB");
    report->Add("build_s", LowerQuartile(reload_s), "s");
    report->Add("query_s", LowerQuartile(per_10k), "s");
    // The open-loop latencies are not end-to-end metrics: stalls of the
    // host and of reloads move the p99 from ~85 us to ~10 ms and the p50 by
    // up to 1.9x between runs (README.md); traced runs report both.
    report->Detail("serve_max_rps", Median(closed_rps), "req/s");
    return true;
  }
  const double rank_builds = static_cast<double>(
      after.HistogramCount("eval.rank_build_us") -
      before.HistogramCount("eval.rank_build_us"));
  const double rank_build_us = after.HistogramSum("eval.rank_build_us") -
                               before.HistogramSum("eval.rank_build_us");
  // The pool runs only the reloads' rank builds here.
  const double reloads =
      static_cast<double>(std::max<std::size_t>(1, reload_s.size()));
  const double worker_blocks =
      static_cast<double>(after.Counter("threadpool.blocks.worker") -
                          before.Counter("threadpool.blocks.worker"));
  const double caller_blocks =
      static_cast<double>(after.Counter("threadpool.blocks.caller") -
                          before.Counter("threadpool.blocks.caller"));
  report->Add("data.generate_s", setup_times.generate, "s");
  report->Add("data.load_s", setup_times.load, "s");
  report->Add("core.fit_s", setup_times.fit, "s");
  report->Add("core.score_s", setup_times.score, "s");
  report->Add("eval.rank_build_s",
              rank_builds > 0 ? rank_build_us / rank_builds / 1e6 : 0.0, "s");
  report->Add("threadpool.tasks",
              static_cast<double>(after.Counter("threadpool.tasks") -
                                  before.Counter("threadpool.tasks")) /
                  reloads,
              "count");
  report->Add("threadpool.worker_share",
              worker_blocks + caller_blocks > 0
                  ? worker_blocks / (worker_blocks + caller_blocks)
                  : 0.0,
              "ratio");
  report->Detail("eval.streamed_join_s", setup_times.join, "s");
  report->Detail("serve.snapshot_build_s",
                 Median(snapshot_build_s.empty()
                            ? std::vector<double>{initial_build_s}
                            : snapshot_build_s),
                 "s");
  report->Detail("serve.score_p50_us", FloatQuantile(by_verb[0], 0.5), "us");
  report->Detail("serve.topk_p50_us", FloatQuantile(by_verb[1], 0.5), "us");
  report->Detail("serve.whatif_p50_us", FloatQuantile(by_verb[2], 0.5), "us");
  report->Detail("serve.bytes_out",
                 requests > 0 ? bytes_out / requests : 0.0, "B/req");
  report->Detail("serve.open_loop_p50_us", Median(slice_p50), "us");
  report->Detail("serve.open_loop_p99_us", FloatQuantile(all_latency, 0.99),
                 "us");
  report->Detail("serve.send_lag_p99_us", FloatQuantile(send_lag, 0.99),
                 "us");
  report->Add("trace.overhead_pct",
              100.0 * (FloatQuantile(traced_latency, 0.5) /
                           FloatQuantile(untraced_latency, 0.5) -
                       1.0),
              "%");
  return true;
}

}  // namespace perfbench
