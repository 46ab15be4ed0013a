// Span recorder for the traced benchmark run.
//
// The benchmark records one span around every call it makes into a
// layer of vem (Sort, each Get / upsert, each FlushAll / Commit) and, via
// TimedDevice, around every physical device call. Spans stay in memory
// and are written once, at the end, as a Chrome-trace JSON document
// (load it in chrome://tracing or https://ui.perfetto.dev).
//
// Every span carries a small per-thread id (1 = the first thread that
// recorded, normally the client). Recording takes a mutex: spans come
// from the client thread and, on the engine workload, from IoEngine
// workers.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Small dense id of the calling thread (stable for its lifetime).
uint32_t ThreadId();

/// Nanoseconds the calling thread has spent inside outermost TimedDevice
/// calls. A layer span's self time is its duration minus the growth of
/// this counter across it.
uint64_t& ThreadDeviceNs();

struct Span {
  const char* name;  // static string
  const char* cat;   // layer: "sort", "search", "wal", "io", "core"
  uint64_t start_ns;
  uint64_t dur_ns;
  uint32_t tid;
  uint32_t blocks;  // device spans: blocks moved; others 0
};

class Tracer {
 public:
  /// Spans kept for the trace file; later ones are only counted, so a
  /// long run neither grows without bound nor writes a file too large to
  /// load in a browser.
  static constexpr size_t kMaxKept = 200000;

  void Record(const char* name, const char* cat, uint64_t start_ns,
              uint64_t end_ns, uint32_t blocks = 0) {
    Span s{name, cat, start_ns, end_ns - start_ns, ThreadId(), blocks};
    std::lock_guard<std::mutex> lk(mu_);
    recorded_++;
    if (spans_.size() < kMaxKept) spans_.push_back(s);
  }

  /// Spans recorded, kept or not.
  size_t recorded() const {
    std::lock_guard<std::mutex> lk(mu_);
    return recorded_;
  }

  /// Write the kept spans (the earliest ones) as a Chrome trace; the
  /// total recorded goes into the trace metadata.
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    const size_t n = spans_.size();
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{"
                    "\"spans_recorded\":%zu,\"spans_written\":%zu},"
                    "\"traceEvents\":[\n", recorded_, n);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"blocks\":%u}}\n",
                   i == 0 ? "" : ",", s.name, s.cat, s.tid,
                   double(s.start_ns - base) / 1e3, double(s.dur_ns) / 1e3,
                   s.blocks);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  size_t recorded_ = 0;
};

/// RAII span around one call into a layer; also yields the call's self
/// time (duration minus the device time nested in it on this thread).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* cat)
      : tracer_(tracer), name_(name), cat_(cat), start_(NowNs()),
        dev_start_(ThreadDeviceNs()) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Close the span now; returns {duration, self} in ns. Idempotent.
  void End() {
    if (done_) return;
    done_ = true;
    const uint64_t end = NowNs();
    dur_ns_ = end - start_;
    const uint64_t dev = ThreadDeviceNs() - dev_start_;
    self_ns_ = dur_ns_ > dev ? dur_ns_ - dev : 0;
    if (tracer_ != nullptr) tracer_->Record(name_, cat_, start_, end);
  }
  uint64_t dur_ns() const { return dur_ns_; }
  uint64_t self_ns() const { return self_ns_; }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* cat_;
  uint64_t start_;
  uint64_t dev_start_;
  bool done_ = false;
  uint64_t dur_ns_ = 0;
  uint64_t self_ns_ = 0;
};

}  // namespace perfbench
