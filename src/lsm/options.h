// Engine options. The paper (§3.1.1) customizes RocksDB by disabling the
// write-ahead log, compression, caching and compaction, and exposing
// sync/async writes, mmap, buffer size and block size — all of which are
// first-class knobs here.
#pragma once

#include <cstdint>
#include <memory>

#include "common/units.h"

namespace lsmio::vfs {
class Vfs;
}

namespace lsmio::lsm {

class FilterPolicy;
class Cache;
class WriteMemoryPool;

enum class CompressionType : uint8_t {
  kNone = 0,
  kLzLite = 1,  // built-in byte-oriented LZ (Snappy-class, self-contained)
};

/// DB-wide options, fixed at Open().
struct Options {
  /// File system the DB lives on. If null, the process PosixVfs is used.
  vfs::Vfs* vfs = nullptr;

  /// Create the database if missing.
  bool create_if_missing = true;
  /// Fail if the database already exists.
  bool error_if_exists = false;
  /// Open without mutating the database: no fresh WAL, no manifest
  /// rewrite, no obsolete-file cleanup. Required when several processes
  /// (or ranks) open the same store concurrently for reading; all write
  /// operations fail with InvalidArgument.
  bool read_only = false;

  // --- paper §3.1.1 knobs ---------------------------------------------------

  /// Disable the write-ahead log (paper: checkpoint data does not need it;
  /// the caller issues an explicit write barrier instead).
  bool disable_wal = false;

  /// Block compression for SSTables.
  CompressionType compression = CompressionType::kNone;

  /// Disable the block cache entirely.
  bool disable_cache = false;

  /// Disable background compaction: memtable flushes accumulate as L0 files
  /// and reads merge across them (the paper's checkpoint configuration).
  bool disable_compaction = false;

  /// Synchronous writes: every write reaches stable storage before the call
  /// returns. Asynchronous (false) lets the OS/file system buffer.
  bool sync_writes = false;

  /// Memory-map SSTables for reads.
  bool use_mmap = false;

  /// MemTable size that triggers a flush to an SSTable ("buffer size";
  /// the paper configures 32 MB to match ADIOS2's BufferChunkSize).
  uint64_t write_buffer_size = 32 * MiB;

  /// Total memtables held in memory (one active + up to N-1 immutable ones
  /// queued for flush). Values > 2 let writers roll to a fresh memtable
  /// instead of stalling while earlier flushes are still in flight.
  /// Minimum effective value is 2.
  int max_write_buffer_number = 2;

  /// Target uncompressed size of an SSTable data block.
  uint64_t block_size = 4 * KiB;

  // --- engine tuning --------------------------------------------------------

  /// Keys between restart points within a block.
  int block_restart_interval = 16;

  /// Max L0 files before a flush stalls writers (only when compaction is
  /// enabled; with compaction disabled there is no limit, as in the paper).
  int l0_stop_writes_trigger = 36;

  /// Soft L0 trigger for graduated backpressure: once L0 holds this many
  /// files (or the immutable-memtable queue is one slot from full) the
  /// group-commit leader paces writes with per-batch delays that ramp up
  /// toward the hard l0_stop_writes_trigger, instead of running full speed
  /// into the stop cliff. 0 disables pacing (hard stalls only). Ignored
  /// when disable_compaction is set: in paper mode L0 is unbounded and
  /// writes are never delayed.
  int l0_slowdown_writes_trigger = 20;

  /// Admitted write-byte rate at the moment the slowdown trigger fires;
  /// deeper L0 pressure scales the rate further down (to 1/32 at the stop
  /// trigger). Chosen per device; the default matches a mid-range NVMe
  /// device's sustained compaction budget.
  uint64_t delayed_write_rate = 16 * MiB;

  /// Budget on background-I/O bytes per second (flush + compaction table
  /// writes), shared across all shards of a store. Flushes are charged at
  /// high priority and preempt compaction writes, so background I/O stops
  /// bursting against foreground WAL fsyncs. 0 (default) = unlimited.
  uint64_t bytes_per_sec = 0;

  /// L0 file count that triggers a compaction into L1.
  int l0_compaction_trigger = 4;

  /// Max bytes in level L = max_bytes_for_level_base * 10^(L-1).
  uint64_t max_bytes_for_level_base = 64 * MiB;

  /// Target file size for compaction outputs.
  uint64_t target_file_size = 8 * MiB;

  /// Sizes the store's two background pools: memtable flushes run on
  /// max(1, background_threads) threads, compactions on a separate pool of
  /// max(1, background_threads - 1) threads, which caps concurrent
  /// compactions across all shards of a store. A long compaction therefore
  /// never delays a flush. The paper configures a single *flushing* thread
  /// (§3.1.2); each DB runs at most one flush at a time regardless of this
  /// value. A store that never compacts starts no compaction thread.
  int background_threads = 1;

  // --- sharding -------------------------------------------------------------

  /// Number of hash shards the keyspace is partitioned into. 1 (default)
  /// keeps a single LSM at the store path with the on-disk format of
  /// previous releases. N > 1 opens a ShardedDB: N sub-LSMs in shard-NNN
  /// subdirectories, each with its own memtable, WAL and manifest, so
  /// writes group-commit per shard (N concurrent WAL fsyncs) and flushes/
  /// compactions from different shards run concurrently on one shared
  /// background pool. The shard count is fixed at store creation and
  /// recorded in a SHARDS marker file; reopening with a different value
  /// fails with InvalidArgument.
  int num_shards = 1;

  // --- value log (WAL-time key/value separation) ----------------------------

  /// Values at least this many bytes are separated at group-commit time:
  /// the bytes go to an append-only blob segment (NNNNNN.blob) and the LSM
  /// stores only a (segment, offset, length) pointer, so flush and
  /// compaction move pointers instead of megabytes. 0 (default) disables
  /// separation and keeps the on-disk format byte-for-byte identical to
  /// previous releases. A store that already contains blob segments still
  /// resolves and garbage-collects them when reopened with 0.
  uint64_t value_log_threshold = 0;

  /// Soft cap on a blob segment's size: the active segment is rotated to a
  /// fresh file once it crosses this size (a single write group may
  /// overshoot). Smaller segments give finer-grained GC.
  uint64_t value_log_segment_size = 64 * MiB;

  /// A sealed segment whose garbage fraction (1 - live/total bytes) is at
  /// least this ratio becomes a GC candidate: compactions relocate its
  /// surviving values into the active segment, and the file is deleted once
  /// no live pointer and no in-flight reader references it. Needs
  /// background compaction; with disable_compaction, segments are only
  /// reclaimed when their live bytes naturally reach zero.
  double value_log_gc_garbage_ratio = 0.5;

  // --- global memory arbitration (multi-tenant; see DESIGN.md §15) ----------

  /// Shared block cache. When set (and !disable_cache) the DB uses this
  /// cache instead of allocating a private 8 MiB one;
  /// inserts are charged to `tenant_id`. Must outlive the DB. Typically
  /// MemoryArbiter::shared_cache().
  Cache* block_cache = nullptr;

  /// Global write-memory pool. When set, write_buffer_size no longer
  /// triggers memtable switches: the DB attaches to the pool, reports its
  /// memtable residency, and flushes when the pool picks it as a victim
  /// (aggregate budget pressure, cold-first/largest-first) or when the
  /// active memtable hits the pool's per-attachment hard cap. Global
  /// pressure also feeds WriteController pacing. Must outlive the DB.
  /// Typically MemoryArbiter::write_pool().
  WriteMemoryPool* write_memory_pool = nullptr;

  /// Charge owner for this DB's cache inserts and pool attachments
  /// (0 = unowned/single-tenant). Assigned by MemoryArbiter::RegisterTenant.
  uint64_t tenant_id = 0;
};

/// Options for read operations.
struct ReadOptions {
  /// Verify block checksums on this read.
  bool verify_checksums = false;
  /// Cache blocks touched by this read.
  bool fill_cache = true;
  /// Read at this snapshot sequence number; 0 means "latest".
  uint64_t snapshot_sequence = 0;
  /// Sequential readahead window: a table iterator stepping forward past
  /// the bytes it last read reads this many (at most 1 MiB, at least the
  /// block) with one VFS read, and serves the blocks inside from them.
  /// 0 reads each block alone.
  uint64_t readahead_bytes = 0;
};

/// Options for write operations.
struct WriteOptions {
  /// Override Options::sync_writes for this write; when true the write (and
  /// its WAL record, if the WAL is enabled) is synced to stable storage.
  bool sync = false;
};

}  // namespace lsmio::lsm
