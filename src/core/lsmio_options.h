// LSMIO configuration (paper §3.1.1–3.1.2): the store customizations the
// paper applies to its LSM backend, the batching mode used for backends
// that cannot disable their WAL (the LevelDB case), and MPI options.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace lsmio::vfs {
class Vfs;
}
namespace lsmio::minimpi {
class Comm;
}

namespace lsmio {

class MemoryArbiter;

/// How writeBarrier (and barrier-implying operations) wait.
enum class BarrierMode {
  kSync,   // block until data is flushed to storage
  kAsync,  // trigger the flush and return
};

struct LsmioOptions {
  /// File system the store lives on; null = process PosixVfs.
  vfs::Vfs* vfs = nullptr;

  // --- paper §3.1.1 store customizations (defaults = checkpoint config) ---
  bool disable_wal = true;
  bool disable_compression = true;
  bool disable_cache = true;
  bool disable_compaction = true;
  /// Write synchronously (every put reaches storage before returning).
  bool sync_writes = false;
  /// Memory-map table reads.
  bool use_mmap = false;
  /// In-memory aggregation buffer (the paper matches ADIOS2's 32 MB).
  uint64_t write_buffer_size = 32 * MiB;
  /// SSTable block size.
  uint64_t block_size = 4 * KiB;

  // --- write pipeline ---
  /// Sizes the flush pool (max(1, N) threads) and the separate compaction
  /// pool (max(1, N - 1) threads), so a long compaction never delays a
  /// flush; at most one flush runs at a time, preserving the paper's
  /// single flushing thread (§3.1.2).
  int background_threads = 2;
  /// Total memtables (1 active + N-1 immutable queued for flush). Values
  /// > 2 let checkpoint bursts roll to a fresh buffer instead of stalling
  /// behind an in-flight flush. Minimum effective value is 2.
  int max_write_buffer_number = 2;
  /// Hash shards the store's keyspace is split into (1 = single LSM,
  /// previous on-disk format). N > 1 runs N sub-LSMs with independent
  /// write queues/WALs and concurrent flushes/compactions; fixed at store
  /// creation. See lsm::Options::num_shards.
  int num_shards = 1;

  /// Open the store without mutating it (concurrent multi-rank readers of
  /// one store, e.g. the ADIOS2-plugin read path, require this).
  bool read_only = false;

  // --- multi-tenant memory arbitration (DESIGN.md §15) ---
  /// Process-wide memory arbiter shared by many stores. When set, this
  /// store registers as a tenant: its memtables draw from the arbiter's
  /// global write budget (write_buffer_size stops being the flush trigger;
  /// the arbiter picks flush victims under aggregate pressure) and — with
  /// disable_cache=false — its block reads go through the arbiter's shared,
  /// per-tenant-charged cache. The arbiter must outlive the store.
  MemoryArbiter* memory_arbiter = nullptr;

  // --- §3.1.2 Local Store behaviour ---
  /// Aggregate writes in a WriteBatch and apply them at the write barrier
  /// (the LevelDB-style mode; with a WAL-less backend this is unnecessary
  /// but remains available for ablation).
  bool use_write_batch = false;

  // --- §3.1.3 MPI integration ---
  /// Optional communicator. When set with `collective_io`, puts are routed
  /// to an owner rank by key hash (the paper's future-work collective mode).
  minimpi::Comm* comm = nullptr;
  bool collective_io = false;

  /// Chunk size used by the FStream API to shard file bodies into values.
  uint64_t fstream_chunk_size = 1 * MiB;
};

}  // namespace lsmio
