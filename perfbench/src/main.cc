// perfbench — end-to-end benchmark driver for PipeRisk.
//
//   perfbench --workload region_models|sharded_stream|serve_mixed
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out FILE] [--threads T] [--smoke]
//
// Runs one workload in this process: set-up, a measured phase of S seconds,
// then checks of the program's outputs. Prints every metric as a
// `metric <name> <value> <unit>` line and, last, one JSON result line.
// Untraced runs report the end-to-end metrics; traced runs record spans
// around every library call, write them as chrome://tracing JSON and report
// the per-layer metrics. Exits non-zero when a check fails.

#include <malloc.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else if (flag == "--threads") {
      options->threads = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (options->workload.empty() || options->work_dir.empty() ||
      options->seconds <= 0.0 || options->threads < 1) {
    std::fprintf(stderr,
                 "perfbench: need --workload, --work-dir, --seconds > 0 and "
                 "--threads >= 1\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.process_start = perfbench::Clock::now();
  if (!ParseArgs(argc, argv, &options)) return 2;
  // glibc raises its mmap threshold each time a large block is freed, after
  // which blocks up to 32 MiB come from per-thread heaps that keep freed
  // memory, so the resident set would depend on the order of past
  // allocations across threads (fixing the thresholds at 32 MiB instead
  // left the same spread). Fixed 128 KiB thresholds hand every block of
  // that size or more back to the system when it is freed, so
  // `peak_rss_mb` follows the memory the program holds; the price is a
  // page fault for each fresh page of a large block (README.md).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  mkdir(options.work_dir.c_str(), 0755);

  perfbench::Tracer tracer(options.trace);
  perfbench::Checker checker;
  perfbench::Report report;
  bool ran = false;
  if (options.workload == "region_models") {
    ran = perfbench::RunRegionModels(options, &tracer, &checker, &report);
  } else if (options.workload == "sharded_stream") {
    ran = perfbench::RunShardedStream(options, &tracer, &checker, &report);
  } else if (options.workload == "serve_mixed") {
    ran = perfbench::RunServeMixed(options, &tracer, &checker, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  if (!ran) {
    std::fprintf(stderr, "perfbench: %s set-up failed\n",
                 options.workload.c_str());
    return 1;
  }

  if (options.trace) {
    const std::vector<std::string> table = tracer.LayerTable();
    std::printf("per-layer spans (self = span minus its child spans):\n");
    for (const std::string& line : table) std::printf("  %s\n", line.c_str());
    if (!options.trace_out.empty()) {
      // Request spans can number in the hundreds of thousands; the file
      // keeps the first 200k, the table above covers all of them.
      if (!tracer.WriteChromeJson(options.trace_out, 200000)) {
        checker.Expect(false, "write trace " + options.trace_out);
      } else {
        std::printf("trace written to %s\n", options.trace_out.c_str());
      }
      std::ofstream layers(options.trace_out + ".layers.txt");
      for (const std::string& line : table) layers << line << "\n";
    }
  }
  std::printf("cores %u, checks passed %d, failed %d, operations attempted "
              "%lld, failed %lld\n",
              std::thread::hardware_concurrency(), checker.passed(),
              checker.failures(), static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  report.PrintLines();
  const bool correct = checker.failures() == 0;
  std::printf("%s\n", report.ResultJson(correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
