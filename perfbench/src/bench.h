// Shared machinery of the end-to-end benchmark: timed sections that double
// as trace spans, robust statistics over repetitions, telemetry counter
// deltas, a peak-RSS sampler, output checks and the result report.
//
// Nothing here reaches into the program: every time is taken around a call
// into a public library function, and every counter is read from the
// process-wide telemetry registry the library already exports.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short run: exercises every check in a few seconds.
  bool smoke = false;
  std::string work_dir;   ///< scratch directory for generated inputs
  std::string trace_out;  ///< chrome://tracing JSON path (traced runs)
  int threads = 4;        ///< worker threads handed to the library
  Clock::time_point process_start;
};

// --- tracing -----------------------------------------------------------------

/// One finished span. `parent` is the id of the span that was open on the
/// same thread when this one began (0 at top level); `rep` is the
/// repetition the span belongs to (-1 for set-up and verification).
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;
  int rep = -1;
  int tid = 0;
};

/// In-memory span log of one thread. Spans are appended without locks; the
/// Tracer owns every log and merges them when the run ends.
class SpanLog {
 public:
  SpanLog(int tid, bool enabled, Clock::time_point origin,
          std::atomic<std::int64_t>* next_id)
      : tid_(tid), enabled_(enabled), origin_(origin), next_id_(next_id) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_rep(int rep) { rep_ = rep; }

  /// Opens a span; returns its id (0 when tracing is off).
  std::int64_t Open();
  /// Closes the innermost open span and records it.
  void Close(std::int64_t id, const char* name, Clock::time_point start,
             Clock::time_point end);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int tid_;
  bool enabled_;
  Clock::time_point origin_;
  std::atomic<std::int64_t>* next_id_;
  int rep_ = -1;
  std::vector<std::int64_t> stack_;
  std::vector<SpanRecord> spans_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// A new per-thread log (thread-safe). The Tracer keeps ownership.
  SpanLog* NewLog();

  /// Writes chrome://tracing JSON ("X" complete events). At most
  /// `max_events` spans are written; the per-layer table always covers all.
  bool WriteChromeJson(const std::string& path, std::size_t max_events) const;

  /// Per span name: count, total, median and self time (duration minus the
  /// time covered by its child spans), as printable lines.
  std::vector<std::string> LayerTable() const;

 private:
  /// All spans of all logs, by start time.
  std::vector<SpanRecord> AllSpans() const;

  bool enabled_;
  Clock::time_point origin_;
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// A timed section around one call into the library. Always measures (the
/// untraced metrics need the time); records a span only when the log is
/// tracing. Sections nest: a section opened while another is open on the
/// same log becomes its child.
class Section {
 public:
  Section(SpanLog* log, const char* name)
      : log_(log), name_(name), id_(log->Open()), start_(Clock::now()) {}
  ~Section() {
    if (!stopped_) Stop();
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

  /// Ends the section; returns its length in seconds.
  double Stop() {
    const Clock::time_point end = Clock::now();
    if (!stopped_) {
      log_->Close(id_, name_, start_, end);
      stopped_ = true;
      seconds_ = SecondsBetween(start_, end);
    }
    return seconds_;
  }

 private:
  SpanLog* log_;
  const char* name_;
  std::int64_t id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

// --- statistics --------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of a copy of `values`; the
/// same definition as numpy's default. NaN on empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
inline double LowerQuartile(const std::vector<double>& v) {
  return Quantile(v, 0.25);
}

// --- telemetry ---------------------------------------------------------------

/// A point-in-time copy of the library's counters and histogram sums, for
/// deltas around a measured call.
class CounterSnapshot {
 public:
  static CounterSnapshot Take();
  std::int64_t Counter(const std::string& name) const;
  /// Sum and count of a histogram (0 when it is not registered yet).
  double HistogramSum(const std::string& name) const;
  std::int64_t HistogramCount(const std::string& name) const;

 private:
  piperisk::telemetry::MetricsSnapshot snapshot_;
};

/// Appends the shared thread pool's work between two snapshots: tasks run,
/// and the share of ParallelFor blocks run by pool workers rather than the
/// calling thread.
void PoolShare(const CounterSnapshot& before, const CounterSnapshot& after,
               std::vector<double>* tasks, std::vector<double>* worker_share);

/// Tracing overhead of a traced run, in percent: the lower quartile of the
/// traced repetitions against that of the untraced ones.
double TraceOverheadPct(const std::vector<double>& rep_seconds,
                        const std::vector<bool>& rep_traced);

// --- host ------------------------------------------------------------------

/// System-wide CPU ticks from /proc/stat: time the vCPUs ran, and time the
/// hypervisor gave their physical CPUs to someone else while they wanted to
/// run ("steal").
struct HostTicks {
  std::int64_t busy = 0;
  std::int64_t steal = 0;
  static HostTicks Read();
};

/// Share of the vCPUs' wanted time that was stolen between two readings.
double StealShare(const HostTicks& from, const HostTicks& to);

// --- memory ------------------------------------------------------------------

/// Samples the process's resident set every 5 ms while running, so the peak
/// covers only the measured phase (set-up's own peak is not counted).
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the peak resident set in MB (2^20 bytes).
  double StopPeakMb();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> peak_bytes_{0};
  std::thread thread_;
};

// --- checks and report -------------------------------------------------------

/// Collects output checks. A failed check is printed at once and makes the
/// run exit non-zero.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  int failures() const { return failures_; }
  int passed() const { return passed_; }

 private:
  int failures_ = 0;
  int passed_ = 0;
};

/// Named metrics in insertion order, plus the operation counts. Metrics
/// go into the result line; details are figures of one workload's own
/// layers or stages, printed but not part of the result.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& name, double value, const std::string& unit);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Prints every metric as a `metric <name> <value> <unit>` line and every
  /// detail as a `detail <name> <value> <unit>` line.
  void PrintLines() const;
  /// The result object (one line of JSON).
  std::string ResultJson(bool correct) const;

 private:
  using Entry = std::pair<std::string, std::pair<double, std::string>>;
  std::vector<Entry> metrics_;
  std::vector<Entry> details_;
};

// --- workloads ---------------------------------------------------------------

/// Each workload runs set-up, measures for `options.seconds`, verifies its
/// outputs, and fills `report` with the end-to-end metrics (untraced) or
/// per-layer metrics (traced) that every workload reports, plus details of
/// its own. Returns false when set-up failed outright.
bool RunRegionModels(const Options& options, Tracer* tracer, Checker* checker,
                     Report* report);
bool RunShardedStream(const Options& options, Tracer* tracer,
                      Checker* checker, Report* report);
bool RunServeMixed(const Options& options, Tracer* tracer, Checker* checker,
                   Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
