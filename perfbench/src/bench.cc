#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace perfbench {

// --- tracing -----------------------------------------------------------------

std::int64_t SpanLog::Open() {
  if (!enabled_) return 0;
  const std::int64_t id = next_id_->fetch_add(1, std::memory_order_relaxed);
  stack_.push_back(id);
  return id;
}

void SpanLog::Close(std::int64_t id, const char* name, Clock::time_point start,
                    Clock::time_point end) {
  if (id == 0) return;
  // Sections close in LIFO order, so `id` is the innermost open span.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  SpanRecord r;
  r.name = name;
  r.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count();
  r.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  r.id = id;
  r.parent = stack_.empty() ? 0 : stack_.back();
  r.rep = rep_;
  r.tid = tid_;
  spans_.push_back(std::move(r));
}

SpanLog* Tracer::NewLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(static_cast<int>(logs_.size()),
                                            enabled_, origin_, &next_id_));
  return logs_.back().get();
}

std::vector<SpanRecord> Tracer::AllSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const auto& log : logs_) {
    out.insert(out.end(), log->spans().begin(), log->spans().end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool Tracer::WriteChromeJson(const std::string& path,
                             std::size_t max_events) const {
  const std::vector<SpanRecord> spans = AllSpans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  std::size_t written = 0;
  for (const SpanRecord& s : spans) {
    if (written == max_events) break;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"rep\":%d}}",
                  written == 0 ? "" : ",", JsonEscape(s.name).c_str(), s.tid,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.rep);
    out << buf;
    ++written;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

std::vector<std::string> Tracer::LayerTable() const {
  const std::vector<SpanRecord> spans = AllSpans();
  // Children of one parent run one after another on the parent's thread, so
  // the time they cover is the sum of their durations.
  std::unordered_map<std::int64_t, std::int64_t> child_ns;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Row {
    std::vector<double> durations;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans) {
    Row& row = rows[s.name];
    const double d = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    row.durations.push_back(d);
    row.total += d;
    auto it = child_ns.find(s.id);
    const double covered =
        it == child_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e9;
    row.self += d - covered;
  }
  std::vector<std::string> lines;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-34s %9s %12s %12s %12s", "span",
                "count", "median_s", "total_s", "self_s");
  lines.push_back(buf);
  for (const auto& [name, row] : rows) {
    std::snprintf(buf, sizeof(buf), "%-34s %9zu %12.6f %12.6f %12.6f",
                  name.c_str(), row.durations.size(), Median(row.durations),
                  row.total, row.self);
    lines.push_back(buf);
  }
  return lines;
}

// --- statistics --------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

// --- telemetry ---------------------------------------------------------------

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot s;
  s.snapshot_ = piperisk::telemetry::Registry::Global().Snapshot();
  return s;
}

std::int64_t CounterSnapshot::Counter(const std::string& name) const {
  for (const auto& c : snapshot_.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double CounterSnapshot::HistogramSum(const std::string& name) const {
  for (const auto& h : snapshot_.histograms) {
    if (h.name == name) return h.sum;
  }
  return 0.0;
}

std::int64_t CounterSnapshot::HistogramCount(const std::string& name) const {
  for (const auto& h : snapshot_.histograms) {
    if (h.name == name) return h.count;
  }
  return 0;
}

void PoolShare(const CounterSnapshot& before, const CounterSnapshot& after,
               std::vector<double>* tasks, std::vector<double>* worker_share) {
  tasks->push_back(static_cast<double>(after.Counter("threadpool.tasks") -
                                       before.Counter("threadpool.tasks")));
  const double worker =
      static_cast<double>(after.Counter("threadpool.blocks.worker") -
                          before.Counter("threadpool.blocks.worker"));
  const double caller =
      static_cast<double>(after.Counter("threadpool.blocks.caller") -
                          before.Counter("threadpool.blocks.caller"));
  if (worker + caller > 0) worker_share->push_back(worker / (worker + caller));
}

double TraceOverheadPct(const std::vector<double>& rep_seconds,
                        const std::vector<bool>& rep_traced) {
  std::vector<double> on, off;
  for (std::size_t r = 0; r < rep_seconds.size(); ++r) {
    (rep_traced[r] ? on : off).push_back(rep_seconds[r]);
  }
  return 100.0 * (LowerQuartile(on) / LowerQuartile(off) - 1.0);
}

// --- host ------------------------------------------------------------------

HostTicks HostTicks::Read() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::int64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
               softirq = 0, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  HostTicks t;
  t.busy = user + nice + system + irq + softirq;
  t.steal = steal;
  return t;
}

double StealShare(const HostTicks& from, const HostTicks& to) {
  const double busy = static_cast<double>(to.busy - from.busy);
  const double steal = static_cast<double>(to.steal - from.steal);
  return busy + steal > 0 ? steal / (busy + steal) : 0.0;
}

// --- memory ------------------------------------------------------------------

namespace {

/// Current resident set in bytes, read from /proc/self/statm.
std::int64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

RssSampler::RssSampler() {
  peak_bytes_.store(ResidentBytes());
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::int64_t now = ResidentBytes();
      if (now > peak_bytes_.load(std::memory_order_relaxed)) {
        peak_bytes_.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

RssSampler::~RssSampler() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

double RssSampler::StopPeakMb() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  const std::int64_t last = ResidentBytes();
  const std::int64_t peak = std::max(peak_bytes_.load(), last);
  return static_cast<double>(peak) / (1024.0 * 1024.0);
}

// --- checks and report -------------------------------------------------------

void Checker::Expect(bool ok, const std::string& what) {
  if (ok) {
    ++passed_;
    return;
  }
  ++failures_;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, {value, unit}});
}

void Report::PrintLines() const {
  for (const auto& [name, vu] : metrics_) {
    std::printf("metric %-36s %.9g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const auto& [name, vu] : details_) {
    std::printf("detail %-36s %.9g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
}

std::string Report::ResultJson(bool correct) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char value[64];
    if (std::isfinite(vu.first)) {
      std::snprintf(value, sizeof(value), "%.17g", vu.first);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out << (first ? "" : ", ") << "\"" << JsonEscape(name)
        << "\": {\"value\": " << value << ", \"unit\": \""
        << JsonEscape(vu.second) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
