// Calibration probe: the device side of the PDM roofline.
//
// Times single-block and batched transfers on a fresh device built like
// a workload's own, and converts them into the cost of one PDM step
// (one parallel I/O). A workload's predicted I/O time is then
//   parallel_reads * read_step + parallel_writes * write_step,
// which is what its measured run time should approach if the Parallel
// Disk Model's I/O count is what sets it.
#pragma once

#include <cstring>
#include <vector>

#include "common.h"
#include "io/block_device.h"

namespace perfbench {

struct Calibration {
  double seq_read_us = 0;   // one block, single Read, ascending ids
  double rand_read_us = 0;  // one block, single Read, random ids
  double seq_write_us = 0;  // one block, single Write, ascending ids
  double read_step_us = 0;  // one PDM read step, ReadBatch of random ids
  double write_step_us = 0; // one PDM write step, WriteBatch of new ids

  double PredictSeconds(const vem::IoStats& io) const {
    return (double(io.parallel_reads) * read_step_us +
            double(io.parallel_writes) * write_step_us) / 1e6;
  }
};

/// Probe `dev` (fresh: nothing allocated) with `nblocks` blocks.
/// Batches hold `batch` blocks, enough to keep every head of a
/// multi-disk device busy.
inline Calibration Calibrate(vem::BlockDevice* dev, size_t nblocks,
                             size_t batch, uint64_t seed) {
  const size_t bs = dev->block_size();
  Calibration c;
  std::vector<uint64_t> ids(nblocks);
  for (auto& id : ids) id = dev->Allocate();
  vem::IoBuffer buf = vem::AllocIoBuffer(bs * batch, /*zeroed=*/true);
  std::vector<void*> bufs(batch);
  for (size_t i = 0; i < batch; ++i) bufs[i] = buf.get() + i * bs;

  uint64_t t0 = NowNs();
  for (size_t i = 0; i < nblocks; ++i) {
    std::memset(buf.get(), int(i), 64);
    (void)dev->Write(ids[i], buf.get());
  }
  c.seq_write_us = double(NowNs() - t0) / 1e3 / double(nblocks);

  t0 = NowNs();
  for (size_t i = 0; i < nblocks; ++i) (void)dev->Read(ids[i], buf.get());
  c.seq_read_us = double(NowNs() - t0) / 1e3 / double(nblocks);

  std::vector<uint64_t> shuffled = ids;
  SplitMix rng(seed);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Next() % i]);
  }
  t0 = NowNs();
  for (uint64_t id : shuffled) (void)dev->Read(id, buf.get());
  c.rand_read_us = double(NowNs() - t0) / 1e3 / double(nblocks);

  vem::IoStats before = dev->stats();
  t0 = NowNs();
  for (size_t i = 0; i + batch <= nblocks; i += batch) {
    (void)dev->ReadBatch(&shuffled[i], bufs.data(), batch);
  }
  uint64_t ns = NowNs() - t0;
  uint64_t steps = dev->stats().parallel_reads - before.parallel_reads;
  c.read_step_us = steps ? double(ns) / 1e3 / double(steps) : 0;

  std::vector<uint64_t> fresh(nblocks);
  for (auto& id : fresh) id = dev->Allocate();
  std::vector<const void*> cbufs(bufs.begin(), bufs.end());
  before = dev->stats();
  t0 = NowNs();
  for (size_t i = 0; i + batch <= nblocks; i += batch) {
    (void)dev->WriteBatch(&fresh[i], cbufs.data(), batch);
  }
  ns = NowNs() - t0;
  steps = dev->stats().parallel_writes - before.parallel_writes;
  c.write_step_us = steps ? double(ns) / 1e3 / double(steps) : 0;

  for (uint64_t id : ids) dev->Free(id);
  for (uint64_t id : fresh) dev->Free(id);
  return c;
}

/// Report `c` as the io.calib.* metrics, with the roofline of `io`.
inline void SetCalibrationMetrics(const Calibration& c, const vem::IoStats& io,
                                  Result* out) {
  out->Set("io.calib.seq_read_us", c.seq_read_us, "us");
  out->Set("io.calib.rand_read_us", c.rand_read_us, "us");
  out->Set("io.calib.seq_write_us", c.seq_write_us, "us");
  out->Set("io.calib.read_step_us", c.read_step_us, "us");
  out->Set("io.calib.write_step_us", c.write_step_us, "us");
  out->Set("io.predicted_io_s", c.PredictSeconds(io), "s");
}

}  // namespace perfbench
