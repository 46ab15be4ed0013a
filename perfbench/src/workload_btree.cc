// btree_wal: a B+-tree over the write-ahead log, point reads beside
// journaled writes.
//
// Set-up bulk-loads BPlusTree<uint64_t, uint64_t> with 2M keys on a
// DurableBlockDevice with the WAL on (data and log are buffered files,
// 4 KiB blocks), through an ExecutionContext with M = 4 MiB, commits and
// checkpoints. The client (one thread, closed loop) then runs rounds of
// 1000 operations — 900 Get and 100 upserts over scrambled-Zipfian keys
// (theta 0.99) — each round ending with BufferPool::FlushAll +
// DurableBlockDevice::Commit. Every 64 rounds the client also takes a
// checkpoint, which syncs the data file and restarts the log, so the log
// file stays a few tens of MB however long the run is.
//
// Keys: the key space is 4M slots, key = slot. Bulk-loaded keys are the
// even slots, with value Mix64(key ^ kValueSalt), so the reference a Get
// is checked against is that closed form overlaid with the client's own
// upserts. Odd slots are absent until an upsert writes them; a Get on one
// must return NotFound.
//
// Durability check (every run): after the timed phase the benchmark
// hashes every block of the data file at the last Commit, makes more
// upserts and a FlushAll without Commit, closes everything and reopens
// the files, which runs recovery. The recovered blocks must hash equal.
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "calibrate.h"
#include "common.h"
#include "core/ext_vector.h"
#include "io/buffer_pool.h"
#include "io/file_block_device.h"
#include "search/bplus_tree.h"
#include "serve/execution_context.h"
#include "timed_device.h"
#include "wal/durable_block_device.h"
#include "wal/wal_manager.h"

namespace perfbench {
namespace {

using Tree = vem::BPlusTree<uint64_t, uint64_t>;

constexpr size_t kBlock = 4096;
constexpr size_t kMemory = size_t{4} << 20;
constexpr uint64_t kBulkKeys = uint64_t{2} << 20;
constexpr uint64_t kSlots = 2 * kBulkKeys;
constexpr double kTheta = 0.99;
constexpr int kOpsPerRound = 1000;  // one upsert in every 10 operations
constexpr uint64_t kMinRounds = 200;
constexpr uint64_t kRoundsPerCheckpoint = 64;
constexpr uint64_t kWarmupRounds = 2 * kRoundsPerCheckpoint;
constexpr uint64_t kValueSalt = 0xA5A5F00DCAFEull;
constexpr size_t kCalibBlocks = 2048;

uint64_t BulkValue(uint64_t key) { return Mix64(key ^ kValueSalt); }

/// The files, the log, the journaling device, the context and the tree.
/// Members are declared in construction order; destruction runs the
/// other way (tree, context — whose pool flushes into the journal —
/// then the journal, the log and the files).
class BtreeStack {
 public:
  BtreeStack(const std::string& dir, const char* tag, bool reopen,
             DeviceGauge* gauge, Tracer* tracer)
      : data_path_(dir + "/btree_" + tag + ".dat"),
        log_path_(dir + "/btree_" + tag + ".wal") {
    data_file_ = std::make_unique<vem::FileBlockDevice>(
        data_path_, kBlock, /*unlink_on_close=*/false, /*direct_io=*/false,
        /*sync_on_close=*/false, /*open_existing=*/reopen);
    log_file_ = std::make_unique<vem::FileBlockDevice>(
        log_path_, kBlock, false, false, false, reopen);
    data_ = data_file_.get();
    log_ = log_file_.get();
    if (gauge != nullptr) {
      data_timed_ = std::make_unique<TimedDevice>(data_, gauge, tracer);
      log_timed_ = std::make_unique<TimedDevice>(log_, gauge, tracer);
      data_ = data_timed_.get();
      log_ = log_timed_.get();
    }
    vem::WalManager::Config wcfg;
    wcfg.block_size = kBlock;
    wal_ = std::make_unique<vem::WalManager>(log_, wcfg);
    durable_ = std::make_unique<vem::DurableBlockDevice>(data_, wal_.get());
    vem::Options opts;
    opts.block_size = kBlock;
    opts.memory_budget = kMemory;
    opts.enable_wal = true;
    ctx_ = std::make_unique<vem::ExecutionContext>(durable_.get(), opts);
    tree_ = std::make_unique<Tree>(ctx_.get());
  }

  bool valid() const {
    return data_file_->valid() && log_file_->valid() && durable_->valid();
  }
  vem::Status status() const { return durable_->status(); }
  Tree* tree() { return tree_.get(); }
  vem::BufferPool* pool() { return ctx_->pool(); }
  vem::MemoryArbiter* arbiter() { return ctx_->arbiter(); }
  vem::DurableBlockDevice* durable() { return durable_.get(); }
  vem::WalManager* wal() { return wal_.get(); }
  /// The data and log files as the journal sees them (TimedDevice when
  /// traced); their IoStats are the storage-level counts.
  vem::BlockDevice* data() { return data_; }
  vem::BlockDevice* log() { return log_; }
  vem::FileBlockDevice* data_file() { return data_file_.get(); }

  /// DurableBlockDevice::Checkpoint, then cut the log file back to the
  /// block holding the new checkpoint record. On a log device it borrows,
  /// WalManager::Reset zeroes only block 0 and rewrites the log from
  /// there, so an older, longer log generation would stay behind the new
  /// one; recovery parses such a tail when a record of it starts on the
  /// block where the new log ends, and redoes stale images (see
  /// CHANGES.md). Truncating does what Reset does for a log file it owns.
  vem::Status Checkpoint() {
    VEM_RETURN_IF_ERROR(durable_->Checkpoint());
    if (::truncate(log_path_.c_str(), kBlock) != 0) {
      return vem::Status::IOError("truncate " + log_path_ + ": " +
                                  std::strerror(errno));
    }
    return vem::Status::OK();
  }

  /// Close every object, keeping the files (the durability check).
  void Close() {
    tree_.reset();
    ctx_.reset();
    durable_.reset();
    wal_.reset();
    data_timed_.reset();
    log_timed_.reset();
    data_file_.reset();
    log_file_.reset();
  }
  void RemoveFiles() {
    Close();
    ::unlink(data_path_.c_str());
    ::unlink(log_path_.c_str());
  }

 private:
  std::string data_path_, log_path_;
  std::unique_ptr<vem::FileBlockDevice> data_file_, log_file_;
  std::unique_ptr<TimedDevice> data_timed_, log_timed_;
  vem::BlockDevice* data_ = nullptr;
  vem::BlockDevice* log_ = nullptr;
  std::unique_ptr<vem::WalManager> wal_;
  std::unique_ptr<vem::DurableBlockDevice> durable_;
  std::unique_ptr<vem::ExecutionContext> ctx_;
  std::unique_ptr<Tree> tree_;
};

/// Bulk-load the 2M even-slot keys, commit, checkpoint. The sorted input
/// is staged on a scratch file; its write and scan speeds are the core
/// layer's numbers.
vem::Status BulkLoad(BtreeStack* s, const std::string& dir, double* write_MBps,
                     double* scan_MBps) {
  vem::FileBlockDevice scratch(dir + "/btree_bulk.dat", kBlock);
  vem::ExtVector<Tree::KV> sorted(&scratch);
  const double mb = double(kBulkKeys * sizeof(Tree::KV)) / 1e6;
  uint64_t t0 = NowNs();
  {
    vem::ExtVector<Tree::KV>::Writer w(&sorted);
    for (uint64_t i = 0; i < kBulkKeys; ++i) {
      const uint64_t key = 2 * i;
      if (!w.Append(Tree::KV{key, BulkValue(key)})) return w.status();
    }
    VEM_RETURN_IF_ERROR(w.Finish());
  }
  *write_MBps = mb / SecondsSince(t0);
  t0 = NowNs();
  {
    vem::ExtVector<Tree::KV>::Reader r(&sorted);
    Tree::KV kv;
    while (r.Next(&kv)) {
    }
    VEM_RETURN_IF_ERROR(r.status());
  }
  *scan_MBps = mb / SecondsSince(t0);
  VEM_RETURN_IF_ERROR(s->tree()->Init());
  VEM_RETURN_IF_ERROR(s->tree()->BulkLoad(sorted));
  VEM_RETURN_IF_ERROR(s->pool()->FlushAll());
  VEM_RETURN_IF_ERROR(s->durable()->Commit());
  return s->Checkpoint();
}

/// The client: seeded operation stream plus the reference map.
class Client {
 public:
  Client(uint64_t seed, const ScrambledZipf* zipf)
      : rng_(Mix64(seed) ^ 0xB7EE), zipf_(zipf) {}

  struct Phase {
    uint64_t rounds = 0, gets = 0, upserts = 0, failed = 0;
    uint64_t flushalls = 0, commits = 0, checkpoints = 0;
    uint64_t wall_ns = 0, flushall_ns = 0, commit_ns = 0, checkpoint_ns = 0;
    uint64_t get_self_ns = 0, upsert_self_ns = 0;
    LatencyHistogram get_lat, upsert_lat, op_lat, commit_lat;
  };

  /// Run whole rounds until `seconds` have passed (and at least
  /// `min_rounds`), or exactly `rounds` when it is non-zero.
  void Run(BtreeStack* s, double seconds, uint64_t min_rounds,
           uint64_t rounds, Tracer* tracer, Phase* ph, Result* out) {
    const uint64_t t0 = NowNs();
    for (;;) {
      if (rounds != 0 ? ph->rounds == rounds
                      : ph->rounds >= min_rounds && SecondsSince(t0) >= seconds)
        break;
      Round(s, tracer, ph, out);
      ph->rounds++;
      if (ph->rounds % kRoundsPerCheckpoint == 0) {
        Checkpoint(s, tracer, ph, out);
      }
    }
    ph->wall_ns = NowNs() - t0;
  }

  /// `n` upserts and a FlushAll, no Commit (the durability check).
  void UncommittedUpserts(BtreeStack* s, int n, Result* out) {
    for (int i = 0; i < n; ++i) {
      const uint64_t key = zipf_->Next(&rng_);
      vem::Status st = s->tree()->Insert(key, rng_.Next());
      if (!st.ok()) out->Fail("upsert: " + st.ToString());
    }
    vem::Status st = s->pool()->FlushAll();
    if (!st.ok()) out->Fail("FlushAll: " + st.ToString());
  }

 private:
  void Round(BtreeStack* s, Tracer* tracer, Phase* ph, Result* out) {
    Tree* tree = s->tree();
    for (int block = 0; block < kOpsPerRound / 10; ++block) {
      const int upsert_at = static_cast<int>(rng_.Next() % 10);
      for (int j = 0; j < 10; ++j) {
        const uint64_t key = zipf_->Next(&rng_);
        if (j == upsert_at) {
          const uint64_t value = rng_.Next();
          ScopedSpan span(tracer, "Upsert", "search");
          vem::Status st = tree->Insert(key, value);
          span.End();
          ph->upserts++;
          ph->upsert_lat.Add(span.dur_ns());
          ph->op_lat.Add(span.dur_ns());
          ph->upsert_self_ns += span.self_ns();
          if (!st.ok()) {
            ph->failed++;
            out->Fail("upsert: " + st.ToString());
          } else {
            ref_[key] = value;
          }
          continue;
        }
        uint64_t got = 0;
        ScopedSpan span(tracer, "Get", "search");
        vem::Status st = tree->Get(key, &got);
        span.End();
        ph->gets++;
        ph->get_lat.Add(span.dur_ns());
        ph->op_lat.Add(span.dur_ns());
        ph->get_self_ns += span.self_ns();
        CheckGet(key, st, got, ph, out);
      }
    }
    const uint64_t c0 = NowNs();
    {
      ScopedSpan span(tracer, "FlushAll", "wal");
      vem::Status st = s->pool()->FlushAll();
      span.End();
      ph->flushalls++;
      ph->flushall_ns += span.dur_ns();
      if (!st.ok()) {
        ph->failed++;
        out->Fail("FlushAll: " + st.ToString());
      }
    }
    {
      ScopedSpan span(tracer, "Commit", "wal");
      vem::Status st = s->durable()->Commit();
      span.End();
      ph->commits++;
      ph->commit_ns += span.dur_ns();
      if (!st.ok()) {
        ph->failed++;
        out->Fail("Commit: " + st.ToString());
      }
    }
    ph->commit_lat.Add(NowNs() - c0);
  }

  void Checkpoint(BtreeStack* s, Tracer* tracer, Phase* ph, Result* out) {
    ScopedSpan span(tracer, "Checkpoint", "wal");
    vem::Status st = s->Checkpoint();
    span.End();
    ph->checkpoints++;
    ph->checkpoint_ns += span.dur_ns();
    if (!st.ok()) {
      ph->failed++;
      out->Fail("Checkpoint: " + st.ToString());
    }
  }

  void CheckGet(uint64_t key, const vem::Status& st, uint64_t got, Phase* ph,
                Result* out) {
    auto it = ref_.find(key);
    const bool present = it != ref_.end() || key % 2 == 0;
    if (!present) {
      if (!st.IsNotFound()) {
        if (!st.ok()) ph->failed++;
        out->Fail("Get(" + std::to_string(key) +
                  ") of a never-written key did not return NotFound");
      }
      return;
    }
    if (!st.ok()) {
      ph->failed++;
      out->Fail("Get(" + std::to_string(key) + "): " + st.ToString());
      return;
    }
    const uint64_t want = it != ref_.end() ? it->second : BulkValue(key);
    if (got != want) out->Fail("Get(" + std::to_string(key) + ") wrong value");
  }

  SplitMix rng_;
  const ScrambledZipf* zipf_;
  std::unordered_map<uint64_t, uint64_t> ref_;  // the client's upserts
};

/// Hash of every block of the data file, in id order.
uint64_t HashDataFile(vem::FileBlockDevice* f, uint64_t* nblocks) {
  std::vector<uint64_t> buf(kBlock / 8);
  uint64_t h = 0;
  *nblocks = f->num_allocated();
  for (uint64_t id = 0; id < *nblocks; ++id) {
    if (!f->ReadUncounted(id, buf.data()).ok()) return ~h;
    uint64_t b = Mix64(id);
    for (uint64_t w : buf) b = Mix64(b ^ w);
    h = Mix64(h ^ b);
  }
  return h;
}

/// Acknowledged writes survive, unacknowledged ones vanish: see the file
/// comment. Leaves the files removed.
void DurabilityCheck(BtreeStack* s, Client* client, const std::string& dir,
                     const char* tag, Result* out) {
  uint64_t n_committed = 0;
  const uint64_t h_committed = HashDataFile(s->data_file(), &n_committed);
  client->UncommittedUpserts(s, 100, out);
  s->Close();
  BtreeStack reopened(dir, tag, /*reopen=*/true, nullptr, nullptr);
  if (!reopened.valid()) {
    out->Fail("reopen / recovery failed: " + reopened.status().ToString());
  } else {
    uint64_t n = 0;
    const uint64_t h = HashDataFile(reopened.data_file(), &n);
    if (n != n_committed || h != h_committed) {
      out->Fail("recovered data file differs from the last commit (" +
                std::to_string(n) + " vs " + std::to_string(n_committed) +
                " blocks)");
    }
  }
  reopened.RemoveFiles();
  s->RemoveFiles();
}

struct Counters {
  vem::IoStats durable, data, log;
  uint64_t fsyncs = 0, hits = 0, misses = 0, writebacks = 0;
  size_t grows = 0, sheds = 0, denied = 0;
};

Counters Take(BtreeStack* s) {
  Counters c;
  c.durable = s->durable()->stats();
  c.data = s->data()->stats();
  c.log = s->log()->stats();
  c.fsyncs = s->wal()->fsync_count();
  c.hits = s->pool()->hits();
  c.misses = s->pool()->misses();
  c.writebacks = s->pool()->writebacks();
  c.grows = s->arbiter()->pool_grows();
  c.sheds = s->arbiter()->pool_sheds();
  c.denied = s->arbiter()->denied_grows();
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters c;
  c.durable = a.durable - b.durable;
  c.data = a.data - b.data;
  c.log = a.log - b.log;
  c.fsyncs = a.fsyncs - b.fsyncs;
  c.hits = a.hits - b.hits;
  c.misses = a.misses - b.misses;
  c.writebacks = a.writebacks - b.writebacks;
  c.grows = a.grows - b.grows;
  c.sheds = a.sheds - b.sheds;
  c.denied = a.denied - b.denied;
  return c;
}

/// Checks every phase must pass.
void CheckPhase(const Client::Phase& ph, const Counters& d, Result* out) {
  out->attempted +=
      ph.gets + ph.upserts + ph.flushalls + ph.commits + ph.checkpoints;
  out->failed += ph.failed;
  if (d.fsyncs < ph.commits ||
      d.fsyncs > ph.flushalls + ph.commits + ph.checkpoints) {
    out->Fail("wal fsyncs " + std::to_string(d.fsyncs) +
              " outside [commits, FlushAll + Commit + Checkpoint calls]");
  }
}

/// Set-up ends with kWarmupRounds untimed rounds, checked like the timed
/// ones. They fill the pool with the hot pages, and they make set-up last
/// about a second: the bulk load alone ends in fsyncs of about 50 MB of
/// log and 50 MB of data, and its time on a shared disk moved from run to
/// run by a fifth.
void WarmUp(BtreeStack* s, Client* client, Result* out) {
  Client::Phase ph;
  const Counters c0 = Take(s);
  client->Run(s, 0, 0, kWarmupRounds, nullptr, &ph, out);
  CheckPhase(ph, Take(s) - c0, out);
}

std::unique_ptr<BtreeStack> OpenLoaded(const RunConfig& cfg, const char* tag,
                                       DeviceGauge* gauge, Tracer* tracer,
                                       double* write_MBps, double* scan_MBps,
                                       Result* out) {
  auto s = std::make_unique<BtreeStack>(cfg.work_dir, tag, false, gauge,
                                        tracer);
  if (!s->valid()) {
    out->Fail("cannot open data / log files");
    return nullptr;
  }
  vem::Status st = BulkLoad(s.get(), cfg.work_dir, write_MBps, scan_MBps);
  if (!st.ok()) {
    out->Fail("bulk load: " + st.ToString());
    s->RemoveFiles();
    return nullptr;
  }
  return s;
}

void RunUntraced(const RunConfig& cfg, Result* out) {
  double wmb = 0, smb = 0;
  auto s = OpenLoaded(cfg, "run", nullptr, nullptr, &wmb, &smb, out);
  if (s == nullptr) return;
  const ScrambledZipf zipf(kSlots, kTheta);
  Client client(cfg.seed, &zipf);
  WarmUp(s.get(), &client, out);
  const double setup_s = SecondsSince(cfg.process_start_ns);

  Client::Phase ph;
  const Counters c0 = Take(s.get());
  client.Run(s.get(), cfg.seconds, kMinRounds, 0, nullptr, &ph, out);
  const Counters d = Take(s.get()) - c0;
  CheckPhase(ph, d, out);
  std::fprintf(stderr, "btree_wal: timed phase done at %.2f s\n",
               SecondsSince(cfg.process_start_ns));
  DurabilityCheck(s.get(), &client, cfg.work_dir, "run", out);
  std::fprintf(stderr, "btree_wal: durability check done at %.2f s\n",
               SecondsSince(cfg.process_start_ns));

  const double ops = double(ph.gets + ph.upserts);
  const double client_mb = ops * 16 / 1e6;
  const double wall_s = double(ph.wall_ns) / 1e9;
  out->Set("setup_s", setup_s, "s");
  out->Set("throughput_MBps", client_mb / wall_s, "MB/s");
  out->Set("op_p50_us", ph.op_lat.QuantileUs(50), "us");
  out->Set("pdm_steps_per_MB",
           double(d.data.parallel_ios() + d.log.parallel_ios()) / client_mb,
           "steps/MB");
  out->Set("write_amp",
           double(d.data.bytes_written + d.log.bytes_written) /
               (double(ph.upserts) * 16),
           "B/B");
  std::fprintf(stderr,
               "btree_wal: %llu rounds, %.0f ops/s, get p50 %.1f us p99 %.1f "
               "us, upsert p50 %.1f p99 %.1f us, commit p50 %.0f p95 %.0f us, "
               "fsyncs %llu for %llu commits and %llu checkpoints\n",
               (unsigned long long)ph.rounds, ops / wall_s,
               ph.get_lat.QuantileUs(50), ph.get_lat.QuantileUs(99),
               ph.upsert_lat.QuantileUs(50), ph.upsert_lat.QuantileUs(99),
               ph.commit_lat.QuantileUs(50), ph.commit_lat.QuantileUs(95),
               (unsigned long long)d.fsyncs, (unsigned long long)ph.commits,
               (unsigned long long)ph.checkpoints);
}

void RunTraced(const RunConfig& cfg, Tracer* tracer, Result* out) {
  const ScrambledZipf zipf(kSlots, kTheta);

  // Pass 1, untraced: half the run's time; latency percentiles and the
  // durability check come from here.
  Client::Phase plain;
  Counters dp;
  {
    double wmb = 0, smb = 0;
    auto s = OpenLoaded(cfg, "plain", nullptr, nullptr, &wmb, &smb, out);
    if (s == nullptr) return;
    out->Set("core.write_MBps", wmb, "MB/s");
    out->Set("core.scan_MBps", smb, "MB/s");
    Client client(cfg.seed, &zipf);
    WarmUp(s.get(), &client, out);
    const Counters c0 = Take(s.get());
    client.Run(s.get(), cfg.seconds / 2, kMinRounds, 0, nullptr, &plain,
               out);
    dp = Take(s.get()) - c0;
    CheckPhase(plain, dp, out);
    DurabilityCheck(s.get(), &client, cfg.work_dir, "plain", out);
  }

  // Pass 2, traced: the same rounds on a stack whose files are wrapped.
  DeviceGauge gauge;
  Client::Phase traced;
  Counters dt;
  size_t height = 0, frames_end = 0;
  {
    double wmb = 0, smb = 0;
    auto s = OpenLoaded(cfg, "traced", &gauge, tracer, &wmb, &smb, out);
    if (s == nullptr) return;
    Client client(cfg.seed, &zipf);
    WarmUp(s.get(), &client, out);
    const Counters c0 = Take(s.get());
    const DeviceGauge::Snapshot g0 = gauge.Take();
    client.Run(s.get(), 0, 0, plain.rounds, tracer, &traced, out);
    dt = Take(s.get()) - c0;
    const DeviceGauge::Snapshot g = gauge.Take() - g0;
    CheckPhase(traced, dt, out);
    height = s->tree()->height();
    frames_end = s->pool()->num_frames();
    s->RemoveFiles();
    SetDeviceMetrics(g, out);
  }

  // Wrapping must not change a single logical counter.
  if (!(dp.durable == dt.durable) || !(dp.data == dt.data) ||
      !(dp.log == dt.log)) {
    out->Fail("traced IoStats differ from untraced: journal " +
              dp.durable.ToString() + " vs " + dt.durable.ToString() +
              ", data " + dp.data.ToString() + " vs " + dt.data.ToString() +
              ", log " + dp.log.ToString() + " vs " + dt.log.ToString());
  }
  std::fprintf(stderr, "btree_wal IoStats untraced: journal %s data %s log %s"
               " | traced: journal %s data %s log %s\n",
               dp.durable.ToString().c_str(), dp.data.ToString().c_str(),
               dp.log.ToString().c_str(), dt.durable.ToString().c_str(),
               dt.data.ToString().c_str(), dt.log.ToString().c_str());

  out->Set("io.stats.block_reads", double(dt.durable.block_reads), "count");
  out->Set("io.stats.block_writes", double(dt.durable.block_writes), "count");
  out->Set("io.stats.parallel_reads", double(dt.durable.parallel_reads), "count");
  out->Set("io.stats.parallel_writes", double(dt.durable.parallel_writes),
           "count");
  out->Set("io.pool.hits", double(dt.hits), "count");
  out->Set("io.pool.misses", double(dt.misses), "count");
  out->Set("io.pool.writebacks", double(dt.writebacks), "count");
  out->Set("io.pool.frames_end", double(frames_end), "count");
  out->Set("io.arbiter.pool_grows", double(dt.grows), "count");
  out->Set("io.arbiter.pool_sheds", double(dt.sheds), "count");
  out->Set("io.arbiter.denied_grows", double(dt.denied), "count");
  out->Set("search.height", double(height), "count");
  out->Set("search.get_self_us",
           double(traced.get_self_ns) / 1e3 / double(traced.gets), "us");
  out->Set("search.upsert_self_us",
           double(traced.upsert_self_ns) / 1e3 / double(traced.upserts), "us");
  out->Set("search.get_p50_us", plain.get_lat.QuantileUs(50), "us");
  out->Set("search.get_p99_us", plain.get_lat.QuantileUs(99), "us");
  out->Set("search.upsert_p50_us", plain.upsert_lat.QuantileUs(50), "us");
  out->Set("search.upsert_p99_us", plain.upsert_lat.QuantileUs(99), "us");
  out->Set("wal.fsyncs", double(dt.fsyncs), "count");
  out->Set("wal.log_bytes", double(dt.log.bytes_written), "B");
  out->Set("wal.flushall_s",
           double(traced.flushall_ns) / 1e9 / double(traced.flushalls), "s");
  out->Set("wal.commit_s",
           double(traced.commit_ns) / 1e9 / double(traced.commits), "s");
  out->Set("wal.checkpoint_s",
           traced.checkpoints == 0 ? 0.0
                                   : double(traced.checkpoint_ns) / 1e9 /
                                         double(traced.checkpoints),
           "s");
  out->Set("wal.commit_p50_us", plain.commit_lat.QuantileUs(50), "us");
  out->Set("wal.commit_p95_us", plain.commit_lat.QuantileUs(95), "us");
  out->Set("trace.overhead_pct",
           100.0 * (double(traced.wall_ns) - double(plain.wall_ns)) /
               double(plain.wall_ns),
           "%");

  // Roofline on a fresh file built like the data file.
  {
    vem::FileBlockDevice probe(cfg.work_dir + "/btree_calib.dat", kBlock);
    vem::IoStats storage = dp.data;
    storage.parallel_reads += dp.log.parallel_reads;
    storage.parallel_writes += dp.log.parallel_writes;
    SetCalibrationMetrics(Calibrate(&probe, kCalibBlocks, 8, cfg.seed),
                          storage, out);
  }
}

}  // namespace

void RunBtreeWal(const RunConfig& cfg, Result* out) {
  if (cfg.trace) {
    Tracer tracer;
    RunTraced(cfg, &tracer, out);
    WriteTrace(tracer, cfg, out);
  } else {
    RunUntraced(cfg, out);
  }
}

}  // namespace perfbench
