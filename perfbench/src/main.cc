// vem_perfbench: one process, one workload, one result line.
//
//   vem_perfbench --workload <sort_1disk|sort_4disk|btree_wal> --seed <n>
//                 --seconds <s> --trace <0|1> --work-dir <dir>
//                 [--trace-out <file.json>]
//
// Progress goes to stderr. The last line on stdout is the JSON result
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// perfbench/run.py builds this binary and is the entry point to use.
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace perfbench {

uint32_t ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1);
  return id;
}

uint64_t& ThreadDeviceNs() {
  thread_local uint64_t ns = 0;
  return ns;
}

void Result::Fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void WriteTrace(const Tracer& tracer, const RunConfig& cfg, Result* out) {
  out->Set("trace.spans", double(tracer.recorded()), "count");
  if (cfg.trace_path.empty()) return;
  if (!tracer.WriteChromeTrace(cfg.trace_path)) {
    out->Fail("cannot write trace " + cfg.trace_path);
  } else {
    std::fprintf(stderr, "trace: %s\n", cfg.trace_path.c_str());
  }
}

namespace {

void PrintResult(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: vem_perfbench --workload <sort_1disk|sort_4disk|"
               "btree_wal> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--trace-out <file>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.process_start_ns = NowNs();
  // A fixed mmap threshold hands every freed buffer of 64 KiB or more
  // back to the kernel. Under glibc's default, which raises the threshold
  // as large buffers are freed, those buffers stay in the heap, and the
  // peak RSS follows the run's allocation history (how many sorts it made,
  // how the engine's timing went) rather than what vem holds at once.
  mallopt(M_MMAP_THRESHOLD, 64 << 10);
  if (argc % 2 == 0) return Usage();  // flags come in pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") cfg.seconds = std::atof(v.c_str());
    else if (k == "--trace") cfg.trace = v == "1";
    else if (k == "--work-dir") cfg.work_dir = v;
    else if (k == "--trace-out") cfg.trace_path = v;
    else return Usage();
  }
  if (cfg.work_dir.empty() || cfg.seconds <= 0) return Usage();
  ::mkdir(cfg.work_dir.c_str(), 0755);

  Result result;
  if (cfg.workload == "sort_1disk") {
    RunSort1Disk(cfg, &result);
  } else if (cfg.workload == "sort_4disk") {
    RunSort4Disk(cfg, &result);
  } else if (cfg.workload == "btree_wal") {
    RunBtreeWal(cfg, &result);
  } else {
    return Usage();
  }
  if (!cfg.trace) result.Set("peak_rss_MiB", PeakRssMiB(), "MiB");
  if (result.attempted == 0) result.Fail("no operation attempted");
  PrintResult(result);
  return 0;
}
