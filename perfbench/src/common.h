// Shared pieces of the benchmark: run configuration, the result record,
// input generators and small statistics helpers.
//
// Inputs are generated here, from the run's seed, with the benchmark's
// own generators (splitmix64 and a Gray et al. Zipfian), so a change to
// vem's util/random.h can never change what the benchmark feeds it.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    // scratch device files live here
  std::string trace_path;  // Chrome trace output (traced runs)
  uint64_t process_start_ns = 0;
};

/// What one run reports: the contract's last-line JSON fields plus the
/// metrics (end-to-end in untraced runs, per-layer in traced runs).
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Record a failed correctness check (message goes to stderr).
  void Fail(const std::string& what);
};

// -------------------------------------------------------------- inputs

inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// splitmix64 stream.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    x_ += 0x9E3779B97F4A7C15ull;
    uint64_t z = x_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double NextDouble() { return double(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t x_;
};

/// Scrambled Zipfian over [0, n) (YCSB's construction): ranks follow
/// Zipf(theta) by Gray et al.'s method, and each rank is hashed to a slot
/// so the popular items are spread over the key space instead of being
/// its smallest keys.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  uint64_t Next(SplitMix* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(double(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return Mix64(rank ^ 0x5DEECE66Dull) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

/// Order-independent multiset fingerprint: sum and xor of a mixing hash
/// of every item. Equal fingerprints + equal counts + sortedness is the
/// sort check.
struct Fingerprint {
  uint64_t count = 0, sum = 0, x = 0;
  void Add(uint64_t h) {
    count++;
    sum += h;
    x ^= h;
  }
  bool operator==(const Fingerprint&) const = default;
};

// -------------------------------------------------------------- stats

/// Nearest-rank median of `v`; 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() + 1) / 2 - 1];
}

/// Latency histogram with 0.5%-wide logarithmic buckets: constant memory
/// however many operations a run makes, so recording latencies does not
/// move the run's peak RSS. Quantiles are bucket midpoints.
class LatencyHistogram {
 public:
  void Add(uint64_t ns) {
    size_t b = ns <= 1 ? 0 : static_cast<size_t>(std::log(double(ns)) / kLogStep);
    if (b >= kBuckets) b = kBuckets - 1;
    counts_[b]++;
    n_++;
  }
  uint64_t count() const { return n_; }
  /// Nearest-rank quantile in microseconds (0 when empty).
  double QuantileUs(double p) const {
    if (n_ == 0) return 0;
    uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * double(n_)));
    rank = std::clamp<uint64_t>(rank, 1, n_);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) return std::exp((double(b) + 0.5) * kLogStep) / 1e3;
    }
    return 0;
  }

 private:
  static constexpr double kLogStep = 0.005;  // ln(1.005)
  static constexpr size_t kBuckets = 6000;   // up to e^30 ns
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t n_ = 0;
};

/// CPU seconds (user, system) of the calling thread.
inline void ThreadCpu(double* user_s, double* sys_s) {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  *user_s = double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) / 1e6;
  *sys_s = double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) / 1e6;
}

inline double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

inline double SecondsSince(uint64_t start_ns) {
  return double(NowNs() - start_ns) / 1e9;
}

/// Write the traced run's spans to cfg.trace_path and report their count.
void WriteTrace(const Tracer& tracer, const RunConfig& cfg, Result* out);

/// Workload entry points (workload_sort.cc, workload_btree.cc).
void RunSort1Disk(const RunConfig& cfg, Result* out);
void RunSort4Disk(const RunConfig& cfg, Result* out);
void RunBtreeWal(const RunConfig& cfg, Result* out);

}  // namespace perfbench
