// sort_1disk and sort_4disk: ExternalSorter end to end.
//
// sort_1disk sorts 16M uniform random uint64 keys (128 MiB) on one
// buffered FileBlockDevice with 64 KiB blocks and M = 8 MiB, fully
// synchronous (no engine, no prefetch): 16 runs, one merge pass.
//
// sort_4disk sorts 2M 128-byte records (256 MiB) on an
// IndependentDiskDevice over four O_DIRECT files with 16 KiB blocks and
// M = 8 MiB, through an ExecutionContext with an IoEngine (governed
// read-ahead / write-behind) and the forecast merge: 32 runs, one pass.
//
// The untraced run writes the input once (set-up), then sorts it in
// whole rounds until the run's time is up, checking every output. The
// traced run sorts for half its time on a plain stack, then as many times
// on a stack whose file devices are wrapped in TimedDevice, and checks
// that each pair of sorts charges the same logical IoStats.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "common.h"
#include "core/ext_vector.h"
#include "io/file_block_device.h"
#include "io/independent_disk_device.h"
#include "io/io_engine.h"
#include "serve/execution_context.h"
#include "sort/external_sort.h"
#include "timed_device.h"

namespace perfbench {
namespace {

/// 128-byte key + payload record: little comparison work per byte moved.
struct WideRec {
  uint64_t key;
  uint64_t payload[15];
  bool operator<(const WideRec& o) const { return key < o.key; }
};
static_assert(sizeof(WideRec) == 128);

uint64_t KeyOf(uint64_t v) { return v; }
uint64_t KeyOf(const WideRec& r) { return r.key; }
uint64_t HashOf(uint64_t v) { return Mix64(v); }
uint64_t HashOf(const WideRec& r) {
  uint64_t h = Mix64(r.key);
  for (uint64_t w : r.payload) h = Mix64(h ^ w);
  return h;
}
void MakeItem(SplitMix* rng, uint64_t* out) { *out = rng->Next(); }
void MakeItem(SplitMix* rng, WideRec* out) {
  out->key = rng->Next();
  for (auto& w : out->payload) w = rng->Next();
}

struct SortSpec {
  const char* name;
  size_t items;
  size_t block_size;
  size_t memory;
  size_t disks;       // 1 = one FileBlockDevice, else IndependentDiskDevice
  bool direct_io;
  bool engine;        // ExecutionContext + IoEngine + governed streams
  bool forecast;
  size_t prefetch_depth;
  size_t calib_blocks;
};

const SortSpec kSort1 = {"sort_1disk", size_t{16} << 20, 64 << 10, 8 << 20,
                         1, false, false, false, 0, 256};
const SortSpec kSort4 = {"sort_4disk", size_t{2} << 20, 16 << 10, 8 << 20,
                         4, true, true, true, 8, 1024};

/// One device stack: file devices (optionally TimedDevice-wrapped), the
/// top device the sort runs on, and for engine workloads the engine and
/// the context that wires governor and arbiter to the device.
class SortStack {
 public:
  SortStack(const SortSpec& spec, const std::string& dir, const char* tag,
            DeviceGauge* gauge, Tracer* tracer) {
    auto make_file = [&](size_t i) {
      std::string path = dir + "/" + spec.name + "_" + tag + "_" +
                         std::to_string(i) + ".dat";
      return std::make_unique<vem::FileBlockDevice>(
          path, spec.block_size, /*unlink_on_close=*/true, spec.direct_io);
    };
    if (spec.disks == 1) {
      file_ = make_file(0);
      if (gauge != nullptr) {
        timed_ = std::make_unique<TimedDevice>(file_.get(), gauge, tracer);
        dev_ = timed_.get();
      } else {
        dev_ = file_.get();
      }
    } else {
      std::vector<std::unique_ptr<vem::BlockDevice>> children;
      for (size_t d = 0; d < spec.disks; ++d) {
        std::unique_ptr<vem::BlockDevice> f = make_file(d);
        if (gauge != nullptr) {
          f = std::make_unique<TimedDevice>(std::move(f), gauge, tracer);
        }
        children.push_back(std::move(f));
      }
      indep_ = std::make_unique<vem::IndependentDiskDevice>(
          std::move(children), /*seed=*/0x5EED5EEDull);
      dev_ = indep_.get();
    }
    if (spec.engine) {
      vem::Options opts;
      opts.block_size = spec.block_size;
      opts.memory_budget = spec.memory;
      opts.num_disks = spec.disks;
      opts.prefetch_depth = spec.prefetch_depth;
      opts.direct_io = spec.direct_io;
      // Engine workers plus the client thread stay within the cores.
      size_t cores = std::max(2u, std::thread::hardware_concurrency());
      opts.io_threads = std::min<size_t>(3, cores - 1);
      engine_ = std::make_unique<vem::IoEngine>(opts);
      ctx_ = std::make_unique<vem::ExecutionContext>(dev_, opts, engine_.get());
    }
  }

  ~SortStack() {
    ctx_.reset();     // detaches governor and engine from the device
    engine_.reset();  // joins workers before the devices go away
  }

  bool valid() const {
    if (file_ != nullptr) return file_->valid();
    return indep_->valid();
  }
  vem::BlockDevice* dev() const { return dev_; }
  vem::ExecutionContext* ctx() const { return ctx_.get(); }
  vem::IndependentDiskDevice* indep() const { return indep_.get(); }

 private:
  std::unique_ptr<vem::FileBlockDevice> file_;
  std::unique_ptr<TimedDevice> timed_;
  std::unique_ptr<vem::IndependentDiskDevice> indep_;
  vem::BlockDevice* dev_ = nullptr;
  std::unique_ptr<vem::IoEngine> engine_;
  std::unique_ptr<vem::ExecutionContext> ctx_;
};

/// Write the seeded input; returns its fingerprint.
template <typename T>
vem::Status WriteInput(const SortSpec& spec, uint64_t seed,
                       vem::ExtVector<T>* input, Fingerprint* fp) {
  SplitMix rng(Mix64(seed) ^ 0x1234);
  typename vem::ExtVector<T>::Writer w(input);
  T item;
  for (size_t i = 0; i < spec.items; ++i) {
    MakeItem(&rng, &item);
    fp->Add(HashOf(item));
    if (!w.Append(item)) return w.status();
  }
  return w.Finish();
}

/// One sort of `input` with everything the checks and metrics need.
struct SortRound {
  vem::Status status;
  double wall_s = 0, user_s = 0, sys_s = 0;
  vem::IoStats io;
  size_t initial_runs = 0, merge_passes = 0, fan_in = 0;
  DeviceGauge::Snapshot dev;  // physical calls during the sort (traced)
  std::vector<uint64_t> child_ios;  // block I/Os per independent disk
};

template <typename T>
std::unique_ptr<vem::ExternalSorter<T>> MakeSorter(const SortSpec& spec,
                                                   SortStack* stack) {
  std::unique_ptr<vem::ExternalSorter<T>> s;
  if (stack->ctx() != nullptr) {
    s = std::make_unique<vem::ExternalSorter<T>>(stack->ctx());
  } else {
    s = std::make_unique<vem::ExternalSorter<T>>(stack->dev(), spec.memory);
  }
  s->set_forecast_merge(spec.forecast);
  return s;
}

/// Sort, then check the output against the input's fingerprint and the
/// PDM's I/O count. Failures go to `out`.
template <typename T>
SortRound SortAndCheck(const SortSpec& spec, SortStack* stack,
                       const vem::ExtVector<T>& input, const Fingerprint& fp,
                       DeviceGauge* gauge, Tracer* tracer, Result* out) {
  SortRound r;
  const DeviceGauge::Snapshot g0 =
      gauge != nullptr ? gauge->Take() : DeviceGauge::Snapshot{};
  auto sorter = MakeSorter<T>(spec, stack);
  vem::ExtVector<T> output(stack->dev());
  const vem::IoStats before = stack->dev()->stats();
  vem::IndependentDiskDevice* indep = stack->indep();
  for (size_t d = 0; indep != nullptr && d < indep->num_disks(); ++d) {
    r.child_ios.push_back(indep->disk_stats(d).block_ios());
  }
  double u0, s0, u1, s1;
  ThreadCpu(&u0, &s0);
  {
    ScopedSpan span(tracer, "Sort", "sort");
    r.status = sorter->Sort(input, &output);
    span.End();
    r.wall_s = double(span.dur_ns()) / 1e9;
  }
  ThreadCpu(&u1, &s1);
  if (gauge != nullptr) r.dev = gauge->Take() - g0;
  for (size_t d = 0; d < r.child_ios.size(); ++d) {
    r.child_ios[d] = indep->disk_stats(d).block_ios() - r.child_ios[d];
  }
  r.user_s = u1 - u0;
  r.sys_s = s1 - s0;
  r.io = stack->dev()->stats() - before;
  r.initial_runs = sorter->metrics().initial_runs;
  r.merge_passes = sorter->metrics().merge_passes;
  r.fan_in = sorter->metrics().fan_in;
  if (!r.status.ok()) return r;  // counted as failed by the caller

  // Output: same multiset (count + fingerprint), non-decreasing.
  Fingerprint got;
  {
    typename vem::ExtVector<T>::Reader rd(&output);
    T item;
    uint64_t prev = 0;
    bool sorted = true;
    while (rd.Next(&item)) {
      if (got.count > 0 && KeyOf(item) < prev) sorted = false;
      prev = KeyOf(item);
      got.Add(HashOf(item));
    }
    if (!rd.status().ok()) out->Fail("output scan: " + rd.status().ToString());
    if (!sorted) out->Fail("output is not sorted");
  }
  if (!(got == fp)) out->Fail("output fingerprint differs from the input's");

  // I/O count: 2 * ceil(N/B) * (1 + passes), up to per-run rounding, and
  // passes = ceil(log_fan_in(runs)).
  const uint64_t per_block = spec.block_size / sizeof(T);
  const uint64_t blocks = (spec.items + per_block - 1) / per_block;
  const uint64_t expect = 2 * blocks * (1 + r.merge_passes);
  const uint64_t slack = 2 * r.initial_runs * (1 + r.merge_passes);
  if (r.io.block_ios() < expect || r.io.block_ios() > expect + slack) {
    out->Fail("block I/Os " + std::to_string(r.io.block_ios()) +
              " != 2*ceil(N/B)*(1+passes) = " + std::to_string(expect));
  }
  size_t passes = 0;
  for (size_t runs = r.initial_runs; runs > 1;
       runs = (runs + r.fan_in - 1) / r.fan_in) {
    passes++;
  }
  if (r.merge_passes != passes) {
    out->Fail("merge passes " + std::to_string(r.merge_passes) +
              " != ceil(log_k runs) = " + std::to_string(passes));
  }
  if (spec.disks > 1 && (r.io.parallel_reads * spec.disks < r.io.block_reads ||
                         r.io.parallel_reads > r.io.block_reads)) {
    out->Fail("parallel reads outside [block_reads/D, block_reads]");
  }
  return r;
}

void SetIoStats(const vem::IoStats& io, Result* out) {
  out->Set("io.stats.block_reads", double(io.block_reads), "count");
  out->Set("io.stats.block_writes", double(io.block_writes), "count");
  out->Set("io.stats.parallel_reads", double(io.parallel_reads), "count");
  out->Set("io.stats.parallel_writes", double(io.parallel_writes), "count");
}

template <typename T>
void RunUntraced(const SortSpec& spec, const RunConfig& cfg, Result* out) {
  SortStack stack(spec, cfg.work_dir, "run", nullptr, nullptr);
  if (!stack.valid()) return out->Fail("cannot open device files");
  vem::ExtVector<T> input(stack.dev());
  Fingerprint fp;
  vem::Status s = WriteInput(spec, cfg.seed, &input, &fp);
  if (!s.ok()) return out->Fail("writing input: " + s.ToString());
  auto sort_once = [&] {
    SortRound r = SortAndCheck(spec, &stack, input, fp, nullptr, nullptr, out);
    out->attempted++;
    if (!r.status.ok()) {
      out->failed++;
      std::fprintf(stderr, "sort failed: %s\n", r.status.ToString().c_str());
    }
    return r;
  };
  // Set-up ends with one checked, untimed sort. It warms the heap and the
  // page cache for the timed sorts, and it makes set-up last seconds: the
  // input alone is written in about 0.1 s on sort_1disk, and at that
  // length single runs ranged from 0.08 to 0.14 s with the host's load.
  sort_once();
  const double setup_s = SecondsSince(cfg.process_start_ns);

  std::vector<double> wall, steps, written;
  const uint64_t t_start = NowNs();
  do {
    SortRound r = sort_once();
    if (!r.status.ok()) continue;
    wall.push_back(r.wall_s);
    std::fprintf(stderr, "%s: sort %zu %.3f s, %llu steps, peak rss %.1f MiB\n",
                 spec.name, wall.size(), r.wall_s,
                 static_cast<unsigned long long>(r.io.parallel_ios()),
                 PeakRssMiB());
    steps.push_back(double(r.io.parallel_ios()));
    written.push_back(double(r.io.bytes_written));
  } while (SecondsSince(t_start) < cfg.seconds);
  if (wall.empty()) return out->Fail("no sort succeeded");

  const double mb = double(spec.items * sizeof(T)) / 1e6;
  const double med_wall = Median(wall);
  out->Set("setup_s", setup_s, "s");
  out->Set("throughput_MBps", mb / med_wall, "MB/s");
  out->Set("op_p50_us", med_wall * 1e6, "us");
  out->Set("pdm_steps_per_MB", Median(steps) / mb, "steps/MB");
  out->Set("write_amp", Median(written) / (mb * 1e6), "B/B");
  std::fprintf(stderr, "%s: %zu sorts, median %.3f s\n", spec.name,
               wall.size(), med_wall);
}

/// Governor decision counters (the sort_4disk engine path).
struct GovernorCounts {
  size_t arms = 0, grow = 0, shrink = 0, disarm = 0, skips = 0;
};

GovernorCounts TakeGovernor(const vem::PrefetchGovernor& g) {
  return {g.arms_granted(), g.grow_decisions(), g.shrink_decisions(),
          g.disarm_decisions(), g.saturation_skips()};
}

/// Median over `rounds` of `f(round)`.
template <typename F>
double MedianOf(const std::vector<SortRound>& rounds, F f) {
  std::vector<double> v;
  for (const SortRound& r : rounds) v.push_back(f(r));
  return Median(std::move(v));
}

/// Untraced sorts for half the run, then as many sorts on a stack whose
/// file devices are wrapped in TimedDevice. Per-layer times are medians
/// over the sorts; counts are per sort.
template <typename T>
void RunTraced(const SortSpec& spec, const RunConfig& cfg, Tracer* tracer,
               Result* out) {
  const double mb = double(spec.items * sizeof(T)) / 1e6;
  auto sort_once = [&](SortStack* stack, const vem::ExtVector<T>& input,
                       const Fingerprint& fp, DeviceGauge* gauge,
                       std::vector<SortRound>* rounds) {
    SortRound r = SortAndCheck(spec, stack, input, fp, gauge,
                               gauge != nullptr ? tracer : nullptr, out);
    out->attempted++;
    if (!r.status.ok()) {
      out->failed++;
      out->Fail("sort: " + r.status.ToString());
      return false;
    }
    rounds->push_back(std::move(r));
    return true;
  };

  // Pass 1, untraced: ExtVector write and scan speed, then sorts.
  std::vector<SortRound> plain;
  Fingerprint fp;
  {
    SortStack stack(spec, cfg.work_dir, "plain", nullptr, nullptr);
    if (!stack.valid()) return out->Fail("cannot open device files");
    vem::ExtVector<T> input(stack.dev());
    uint64_t t0 = NowNs();
    vem::Status s = WriteInput(spec, cfg.seed, &input, &fp);
    if (!s.ok()) return out->Fail("writing input: " + s.ToString());
    out->Set("core.write_MBps", mb / SecondsSince(t0), "MB/s");
    t0 = NowNs();
    {
      typename vem::ExtVector<T>::Reader rd(&input);
      T item;
      uint64_t n = 0;
      while (rd.Next(&item)) n++;
      if (n != spec.items) out->Fail("input scan returned a short count");
    }
    out->Set("core.scan_MBps", mb / SecondsSince(t0), "MB/s");
    t0 = NowNs();
    do {
      if (!sort_once(&stack, input, fp, nullptr, &plain)) return;
    } while (SecondsSince(t0) < cfg.seconds / 2);
  }

  // Pass 2, traced: same input, every file device wrapped.
  DeviceGauge gauge;
  std::vector<SortRound> traced;
  {
    SortStack stack(spec, cfg.work_dir, "traced", &gauge, tracer);
    if (!stack.valid()) return out->Fail("cannot open device files");
    vem::ExtVector<T> input(stack.dev());
    Fingerprint fp2;
    vem::Status s = WriteInput(spec, cfg.seed, &input, &fp2);
    if (!s.ok()) return out->Fail("writing input: " + s.ToString());
    if (!(fp2 == fp)) out->Fail("seeded input is not reproducible");

    const vem::PrefetchGovernor* gov =
        stack.ctx() != nullptr ? stack.ctx()->governor() : nullptr;
    const GovernorCounts g0 = gov != nullptr ? TakeGovernor(*gov)
                                             : GovernorCounts{};
    for (size_t i = 0; i < plain.size(); ++i) {
      if (!sort_once(&stack, input, fp, &gauge, &traced)) return;
      // On the synchronous path every counted block is one physical
      // block: two totals reached by independent paths must agree.
      const SortRound& r = traced.back();
      if (spec.disks == 1 && (r.dev.read_blocks != r.io.block_reads ||
                              r.dev.write_blocks != r.io.block_writes)) {
        out->Fail("physical block counts differ from IoStats on the sync "
                  "path");
      }
    }
    if (gov != nullptr) {
      const GovernorCounts g = TakeGovernor(*gov);
      const double n = double(traced.size());
      out->Set("io.governor.arms_granted", double(g.arms - g0.arms) / n,
               "count");
      out->Set("io.governor.grow_decisions", double(g.grow - g0.grow) / n,
               "count");
      out->Set("io.governor.shrink_decisions",
               double(g.shrink - g0.shrink) / n, "count");
      out->Set("io.governor.disarm_decisions",
               double(g.disarm - g0.disarm) / n, "count");
      out->Set("io.governor.saturation_skips",
               double(g.skips - g0.skips) / n, "count");
      out->Set("io.governor.stall_ewma", gov->stall_ewma(), "ratio");
      out->Set("io.governor.waste_ewma", gov->waste_ewma(), "ratio");
    }
  }

  // Wrapping must not change what a sort charges. On sort_4disk the
  // write steps follow the governor's timing-driven group depth, so only
  // the block counts and read steps are compared there.
  for (size_t i = 0; i < traced.size(); ++i) {
    const vem::IoStats& a = plain[i].io;
    const vem::IoStats& b = traced[i].io;
    const bool same = spec.disks == 1
                          ? a == b
                          : a.block_reads == b.block_reads &&
                                a.block_writes == b.block_writes &&
                                a.parallel_reads == b.parallel_reads;
    if (!same) {
      out->Fail("traced IoStats differ from untraced: " + a.ToString() +
                " vs " + b.ToString());
    }
  }
  std::fprintf(stderr, "%s: %zu sorts per pass; IoStats untraced %s | "
               "traced %s\n", spec.name, traced.size(),
               plain.back().io.ToString().c_str(),
               traced.back().io.ToString().c_str());

  const SortRound& last = traced.back();
  SetDeviceMetrics(last.dev, out);
  out->Set("io.dev.busy_s",
           MedianOf(traced, [](const SortRound& r) {
             return double(r.dev.busy_ns) / 1e9;
           }), "s");
  out->Set("io.dev.owner_busy_s",
           MedianOf(traced, [](const SortRound& r) {
             return double(r.dev.owner_busy_ns) / 1e9;
           }), "s");
  SetIoStats(last.io, out);
  if (!last.child_ios.empty()) {
    const auto [mn, mx] = std::minmax_element(last.child_ios.begin(),
                                              last.child_ios.end());
    out->Set("io.indep.child_block_ios_max", double(*mx), "count");
    out->Set("io.indep.child_block_ios_min", double(*mn), "count");
  }
  out->Set("sort.user_s",
           MedianOf(plain, [](const SortRound& r) { return r.user_s; }), "s");
  out->Set("sort.sys_s",
           MedianOf(plain, [](const SortRound& r) { return r.sys_s; }), "s");
  out->Set("sort.blocked_s", MedianOf(plain, [](const SortRound& r) {
             return std::max(0.0, r.wall_s - r.user_s - r.sys_s);
           }), "s");
  out->Set("sort.initial_runs", double(last.initial_runs), "count");
  out->Set("sort.merge_passes", double(last.merge_passes), "count");
  const double plain_wall =
      MedianOf(plain, [](const SortRound& r) { return r.wall_s; });
  const double traced_wall =
      MedianOf(traced, [](const SortRound& r) { return r.wall_s; });
  out->Set("trace.overhead_pct", 100.0 * (traced_wall / plain_wall - 1.0),
           "%");

  // Roofline: a fresh device built like the workload's.
  SortStack probe(spec, cfg.work_dir, "calib", nullptr, nullptr);
  SetCalibrationMetrics(Calibrate(probe.dev(), spec.calib_blocks,
                                  /*batch=*/8 * spec.disks, cfg.seed),
                        plain.back().io, out);
}

}  // namespace

void RunSort1Disk(const RunConfig& cfg, Result* out) {
  if (cfg.trace) {
    Tracer tracer;
    RunTraced<uint64_t>(kSort1, cfg, &tracer, out);
    WriteTrace(tracer, cfg, out);
  } else {
    RunUntraced<uint64_t>(kSort1, cfg, out);
  }
}

void RunSort4Disk(const RunConfig& cfg, Result* out) {
  if (cfg.trace) {
    Tracer tracer;
    RunTraced<WideRec>(kSort4, cfg, &tracer, out);
    WriteTrace(tracer, cfg, out);
  } else {
    RunUntraced<WideRec>(kSort4, cfg, out);
  }
}

}  // namespace perfbench
