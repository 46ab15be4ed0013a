// TimedDevice: a forwarding BlockDevice decorator that times and counts
// every physical call into the device it wraps.
//
// The benchmark wraps each FileBlockDevice with one of these in the
// traced run — the data file, the WAL's log file, and each child of an
// IndependentDiskDevice — so device service time shows up in the trace
// without any tracing inside vem itself.
//
// Contract:
//  - every BlockDevice virtual is forwarded: both transfer planes, the
//    Account* family, Sync, the WAL hooks, EngineDiskTag, PrefetchRoute,
//    set_io_engine and set_retry_policy;
//  - stats() always equals the inner device's IoStats (copied after
//    every call that can charge them), so wrapping changes no counter
//    that a composite device or the benchmark reads;
//  - a decorator call nested inside another decorator call on the same
//    thread is counted and timed once, by the outermost one.
#pragma once

#include <atomic>
#include <memory>
#include <thread>

#include "common.h"
#include "io/block_device.h"
#include "trace.h"

namespace perfbench {

/// Physical-call totals, summed over every TimedDevice that shares it.
/// Atomic: IoEngine workers call into wrapped children concurrently.
struct DeviceGauge {
  std::thread::id owner = std::this_thread::get_id();  // the client thread
  std::atomic<uint64_t> read_calls{0}, write_calls{0};
  std::atomic<uint64_t> read_blocks{0}, write_blocks{0};
  std::atomic<uint64_t> busy_ns{0}, owner_busy_ns{0};
  std::atomic<uint64_t> sync_calls{0}, sync_ns{0};

  struct Snapshot {
    uint64_t read_calls = 0, write_calls = 0, read_blocks = 0,
             write_blocks = 0, busy_ns = 0, owner_busy_ns = 0,
             sync_calls = 0, sync_ns = 0;
    Snapshot operator-(const Snapshot& o) const {
      return {read_calls - o.read_calls,     write_calls - o.write_calls,
              read_blocks - o.read_blocks,   write_blocks - o.write_blocks,
              busy_ns - o.busy_ns,           owner_busy_ns - o.owner_busy_ns,
              sync_calls - o.sync_calls,     sync_ns - o.sync_ns};
    }
  };
  Snapshot Take() const {
    return {read_calls.load(),  write_calls.load(), read_blocks.load(),
            write_blocks.load(), busy_ns.load(),    owner_busy_ns.load(),
            sync_calls.load(),  sync_ns.load()};
  }
};

/// Report a gauge delta as the io.dev.* per-layer metrics.
inline void SetDeviceMetrics(const DeviceGauge::Snapshot& g, Result* out) {
  out->Set("io.dev.read_calls", double(g.read_calls), "count");
  out->Set("io.dev.write_calls", double(g.write_calls), "count");
  out->Set("io.dev.read_blocks", double(g.read_blocks), "count");
  out->Set("io.dev.write_blocks", double(g.write_blocks), "count");
  out->Set("io.dev.busy_s", double(g.busy_ns) / 1e9, "s");
  out->Set("io.dev.owner_busy_s", double(g.owner_busy_ns) / 1e9, "s");
  out->Set("io.dev.sync_calls", double(g.sync_calls), "count");
  out->Set("io.dev.sync_s", double(g.sync_ns) / 1e9, "s");
}

class TimedDevice final : public vem::BlockDevice {
 public:
  /// Wrap `inner` (not owned).
  TimedDevice(vem::BlockDevice* inner, DeviceGauge* gauge, Tracer* tracer)
      : inner_(inner), gauge_(gauge), tracer_(tracer) {
    stats_ = inner_->stats();
  }
  /// Wrap and own `inner` (IndependentDiskDevice children).
  TimedDevice(std::unique_ptr<vem::BlockDevice> inner, DeviceGauge* gauge,
              Tracer* tracer)
      : TimedDevice(inner.get(), gauge, tracer) {
    owned_ = std::move(inner);
  }

  vem::BlockDevice* inner() const { return inner_; }

  size_t block_size() const override { return inner_->block_size(); }

  // ------------------------------------------------------ counted plane
  vem::Status Read(uint64_t id, void* buf) override {
    return Charged(Call(kRead, "dev.Read", 1,
                        [&] { return inner_->Read(id, buf); }));
  }
  vem::Status Write(uint64_t id, const void* buf) override {
    return Charged(Call(kWrite, "dev.Write", 1,
                        [&] { return inner_->Write(id, buf); }));
  }
  vem::Status ReadBatch(const uint64_t* ids, void* const* bufs,
                        size_t n) override {
    return Charged(Call(kRead, "dev.ReadBatch", n,
                        [&] { return inner_->ReadBatch(ids, bufs, n); }));
  }
  vem::Status WriteBatch(const uint64_t* ids, const void* const* bufs,
                         size_t n) override {
    return Charged(Call(kWrite, "dev.WriteBatch", n,
                        [&] { return inner_->WriteBatch(ids, bufs, n); }));
  }

  // ---------------------------------------------------- uncounted plane
  // These never touch IoStats, and may run on engine workers, so they
  // leave stats_ alone.
  bool SupportsUncounted() const override {
    return inner_->SupportsUncounted();
  }
  bool SupportsAsync() const override { return inner_->SupportsAsync(); }
  vem::Status ReadUncounted(uint64_t id, void* buf) override {
    return Call(kRead, "dev.ReadUncounted", 1,
                [&] { return inner_->ReadUncounted(id, buf); });
  }
  vem::Status WriteUncounted(uint64_t id, const void* buf) override {
    return Call(kWrite, "dev.WriteUncounted", 1,
                [&] { return inner_->WriteUncounted(id, buf); });
  }
  vem::Status ReadBatchUncounted(const uint64_t* ids, void* const* bufs,
                                 size_t n) override {
    return Call(kRead, "dev.ReadBatchUncounted", n, [&] {
      return inner_->ReadBatchUncounted(ids, bufs, n);
    });
  }
  vem::Status WriteBatchUncounted(const uint64_t* ids,
                                  const void* const* bufs,
                                  size_t n) override {
    return Call(kWrite, "dev.WriteBatchUncounted", n, [&] {
      return inner_->WriteBatchUncounted(ids, bufs, n);
    });
  }

  // ------------------------------------------------- deferred charging
  void AccountReads(uint64_t blocks) override {
    inner_->AccountReads(blocks);
    stats_ = inner_->stats();
  }
  void AccountWrites(uint64_t blocks) override {
    inner_->AccountWrites(blocks);
    stats_ = inner_->stats();
  }
  void AccountReadBatch(const uint64_t* ids, uint64_t blocks) override {
    inner_->AccountReadBatch(ids, blocks);
    stats_ = inner_->stats();
  }
  void AccountWriteIds(const uint64_t* ids, uint64_t blocks) override {
    inner_->AccountWriteIds(ids, blocks);
    stats_ = inner_->stats();
  }
  void AccountWriteBatch(const uint64_t* ids, uint64_t blocks) override {
    inner_->AccountWriteBatch(ids, blocks);
    stats_ = inner_->stats();
  }

  uint64_t PrefetchRoute(uint64_t block_id) const override {
    return inner_->PrefetchRoute(block_id);
  }
  uint64_t EngineDiskTag(uint64_t block_id) const override {
    return inner_->EngineDiskTag(block_id);
  }

  // -------------------------------------------------- durability plane
  vem::Status Sync() override {
    if (depth_ > 0) return inner_->Sync();
    ++depth_;
    const uint64_t t0 = NowNs();
    vem::Status s = inner_->Sync();
    const uint64_t t1 = NowNs();
    --depth_;
    gauge_->sync_calls.fetch_add(1, std::memory_order_relaxed);
    gauge_->sync_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    AddBusy(t1 - t0);
    if (tracer_ != nullptr) tracer_->Record("dev.Sync", "io", t0, t1);
    return s;
  }
  uint64_t wal_last_lsn() const override { return inner_->wal_last_lsn(); }
  vem::Status EnsureWalDurable(uint64_t lsn) override {
    return inner_->EnsureWalDurable(lsn);
  }

  // ---------------------------------------------------------- plumbing
  uint64_t Allocate() override { return inner_->Allocate(); }
  void Free(uint64_t id) override { inner_->Free(id); }
  uint64_t num_allocated() const override { return inner_->num_allocated(); }
  void set_io_engine(vem::IoEngine* engine) override {
    BlockDevice::set_io_engine(engine);
    inner_->set_io_engine(engine);
  }
  void set_retry_policy(vem::RetryPolicy* retry) override {
    BlockDevice::set_retry_policy(retry);
    inner_->set_retry_policy(retry);
  }

 private:
  enum Dir { kRead, kWrite };

  template <typename Op>
  vem::Status Call(Dir dir, const char* name, size_t blocks, Op&& op) {
    if (depth_ > 0) return op();
    ++depth_;
    const uint64_t t0 = NowNs();
    vem::Status s = op();
    const uint64_t t1 = NowNs();
    --depth_;
    if (dir == kRead) {
      gauge_->read_calls.fetch_add(1, std::memory_order_relaxed);
      gauge_->read_blocks.fetch_add(blocks, std::memory_order_relaxed);
    } else {
      gauge_->write_calls.fetch_add(1, std::memory_order_relaxed);
      gauge_->write_blocks.fetch_add(blocks, std::memory_order_relaxed);
    }
    AddBusy(t1 - t0);
    if (tracer_ != nullptr) {
      tracer_->Record(name, "io", t0, t1, static_cast<uint32_t>(blocks));
    }
    return s;
  }

  void AddBusy(uint64_t ns) {
    ThreadDeviceNs() += ns;
    gauge_->busy_ns.fetch_add(ns, std::memory_order_relaxed);
    if (std::this_thread::get_id() == gauge_->owner) {
      gauge_->owner_busy_ns.fetch_add(ns, std::memory_order_relaxed);
    }
  }

  vem::Status Charged(vem::Status s) {
    stats_ = inner_->stats();
    return s;
  }

  static inline thread_local int depth_ = 0;

  vem::BlockDevice* inner_;
  std::unique_ptr<vem::BlockDevice> owned_;
  DeviceGauge* gauge_;
  Tracer* tracer_;
};

}  // namespace perfbench
