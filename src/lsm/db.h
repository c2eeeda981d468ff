// Public API of the lsmio::lsm storage engine — the from-scratch LSM-tree
// that plays the role RocksDB plays in the paper.
//
// Usage:
//   lsm::Options options;
//   options.disable_wal = true;           // paper's checkpoint configuration
//   options.disable_compaction = true;
//   std::unique_ptr<lsm::DB> db;
//   auto s = lsm::DB::Open(options, "/path/to/db", &db);
//   db->Put({}, "key", "value");
//   db->FlushMemTable(true);              // explicit write barrier
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/histogram.h"
#include "common/slice.h"
#include "common/status.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/write_batch.h"

namespace lsmio::lsm {

/// Opaque consistent read point (see DB::GetSnapshot).
class Snapshot {
 public:
  virtual ~Snapshot() = default;
};

/// How a statistic folds across the shards of a store (DbStats::Merge).
enum class StatKind : uint8_t {
  kCounter,      ///< event total; summed
  kGaugeSum,     ///< state no two shards share (memtables, blob segments); summed
  kGaugeMax,     ///< per-shard state where the worst shard speaks for the store; max
  kSharedTotal,  ///< a total of an object every shard shares, which each shard
                 ///< reports in full; max
  kHistogram,    ///< latency distribution in microseconds; merged
};

/// The member type of a statistic of kind `K`.
template <StatKind K>
using StatValue = std::conditional_t<K == StatKind::kHistogram, Histogram, uint64_t>;

// Every engine statistic, declared once as X(name, kind, help). DbStats has
// one member per row, and DbStats::Merge folds each row by its kind, so a new
// statistic is one row here plus the code that updates it.
#define LSMIO_DB_STATS(X)                                                                          \
  X(puts, kCounter, "put records applied")                                                         \
  X(deletes, kCounter, "delete records applied")                                                   \
  X(gets, kCounter, "Get calls")                                                                   \
  X(get_hits, kCounter, "Get and MultiGet lookups that found the key")                             \
  X(memtable_flushes, kCounter, "memtables flushed to a table")                                    \
  X(compactions, kCounter, "compactions installed")                                                \
  X(bytes_written, kCounter, "user payload bytes accepted")                                        \
  X(bytes_flushed, kCounter, "table bytes produced by flushes")                                    \
  X(wal_bytes, kCounter, "bytes appended to the WAL")                                              \
  /* write pipeline */                                                                             \
  X(group_commit_batches, kCounter, "write groups led (one WAL append each)")                      \
  X(group_commit_writers, kCounter, "writers absorbed into groups")                                \
  X(write_stall_micros, kCounter,                                                                  \
    "wall-clock time writers were hard-stalled: the sum of the two causes below, "                 \
    "not multiplied by the waiter count")                                                          \
  X(stall_memtable_micros, kCounter, "... because every memtable was full and queued for flush")   \
  X(stall_l0_micros, kCounter, "... because L0 hit the stop trigger")                              \
  X(slowdown_delay_micros, kCounter,                                                               \
    "pacing delay injected by graduated backpressure (soft trigger) in place of hard stalls")      \
  X(slowdown_writes, kCounter,                                                                     \
    "write groups admitted while pacing was active (the delay is zero if the bucket had drained)") \
  X(flush_queue_depth, kGaugeMax, "immutable memtables pending flush")                             \
  X(compaction_queue_depth, kGaugeMax,                                                             \
    "compactions queued on the compaction pool or running (at most one per shard)")                \
  /* background I/O rate limiting (Options::bytes_per_sec), one limiter per store */               \
  X(rate_limited_bytes_flush, kSharedTotal, "flush bytes paced (high priority)")                   \
  X(rate_limited_bytes_compaction, kSharedTotal, "compaction bytes paced (low priority)")          \
  X(rate_limiter_wait_micros, kSharedTotal, "time background writers slept in the limiter")        \
  /* per-operation latency, recorded lock-free and folded in by GetStats */                        \
  X(write_latency, kHistogram, "DB::Write, Put and Delete, including stalls and pacing")           \
  X(get_latency, kHistogram, "DB::Get")                                                            \
  X(multiget_latency, kHistogram, "DB::MultiGet, per batch")                                       \
  /* read path */                                                                                  \
  X(multiget_batches, kCounter, "MultiGet calls")                                                  \
  X(multiget_keys, kCounter, "keys looked up through MultiGet")                                    \
  X(multiget_coalesced_reads, kCounter, "block reads saved by coalescing")                         \
  X(bloom_checked, kCounter, "bloom-filter probes")                                                \
  X(bloom_useful, kCounter, "probes that proved a key absent")                                     \
  X(block_cache_hits, kCounter, "block-cache lookups that hit")                                    \
  X(block_cache_misses, kCounter, "block-cache lookups that missed")                               \
  X(readahead_bytes, kCounter, "bytes table iterators read in readahead windows")                  \
  /* health */                                                                                     \
  X(read_only_mode, kGaugeMax, "1 once a background error latched the engine read-only")           \
  /* sharding and compaction parallelism */                                                        \
  X(shards, kGaugeSum, "sub-LSMs of the store (1 per DBImpl)")                                     \
  X(concurrent_compactions, kSharedTotal, "compactions executing now on the compaction pool")      \
  X(peak_concurrent_compactions, kSharedTotal, "high-water mark of concurrent_compactions")        \
  X(compaction_pipeline_batches, kCounter,                                                         \
    "entry batches handed from the compaction read/merge producer to the encode/write consumer")   \
  /* write amplification and value log */                                                          \
  X(compaction_bytes_read, kCounter, "input table bytes read by compactions")                      \
  X(compaction_bytes_written, kCounter, "output table bytes written by compactions")               \
  X(value_log_bytes_written, kCounter, "user value bytes separated into blob segments")            \
  X(value_log_separated_batches, kCounter, "write groups that had at least one value separated")   \
  X(value_log_gc_rewritten_bytes, kCounter, "value bytes GC relocated into fresh segments")        \
  X(value_log_segments_deleted, kCounter, "blob segments reclaimed by GC")                         \
  X(value_log_segments, kGaugeSum, "blob segments on disk")                                        \
  X(value_log_live_bytes, kGaugeSum, "blob record bytes still referenced")                         \
  X(value_log_garbage_bytes, kGaugeSum, "blob record bytes awaiting GC")                           \
  /* global memory arbitration (Options::write_memory_pool, MemoryArbiter) */                      \
  X(memtable_bytes, kGaugeSum, "active and immutable memtable bytes")                              \
  X(tenant_cache_bytes, kGaugeSum,                                                                 \
    "block-cache bytes charged to this store's tenant (shared cache, which ShardedDB maxes), "     \
    "else the private cache's total")                                                              \
  X(arbiter_forced_flushes, kCounter, "memtable switches forced by the write-memory arbiter")      \
  X(write_pool_usage_bytes, kSharedTotal, "pool usage across every attached store")                \
  X(write_pool_budget_bytes, kSharedTotal, "configured pool budget")

/// Point-in-time statistics of the engine (performance counters, paper
/// §3.1.4): one member per LSMIO_DB_STATS row.
struct DbStats {
#define LSMIO_DB_STAT_MEMBER(name, kind, help) StatValue<StatKind::kind> name = {};
  LSMIO_DB_STATS(LSMIO_DB_STAT_MEMBER)
#undef LSMIO_DB_STAT_MEMBER

  /// Folds one shard's statistics into this store-wide aggregate, each
  /// statistic by its declared kind.
  void Merge(const DbStats& shard);
};

class DB {
 public:
  /// Opens (creating per options) the database at `name`. A missing store
  /// is NotFound on a read-only open and InvalidArgument under
  /// create_if_missing=false; an existing one is InvalidArgument under
  /// error_if_exists or when it was created with another num_shards.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  /// Destroys the database at `name`: removes its files and those of
  /// every shard directory it holds.
  static Status Destroy(const Options& options, const std::string& name);

  DB() = default;
  virtual ~DB() = default;
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  /// Applies the batch atomically.
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;
  /// One-op writes: each builds a one-op WriteBatch and calls Write.
  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) {
    WriteBatch batch;
    batch.Put(key, value);
    return Write(options, &batch);
  }
  Status Delete(const WriteOptions& options, const Slice& key) {
    WriteBatch batch;
    batch.Delete(key);
    return Write(options, &batch);
  }

  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  /// Batched point lookup: fills (*values)[i] / (*statuses)[i] for keys[i]
  /// (both resized to keys.size()), all at one consistent sequence number.
  /// The returned Status reflects batch-level failures (I/O errors);
  /// per-key presence is in *statuses (OK / NotFound). DBImpl resolves
  /// memtable hits under one mutex acquisition, groups the rest by table
  /// file, and coalesces adjacent block reads.
  virtual Status MultiGet(const ReadOptions& options,
                          std::span<const Slice> keys,
                          std::vector<std::string>* values,
                          std::vector<Status>* statuses) = 0;

  /// Iterator over the DB (caller deletes before the DB closes).
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  /// Consistent read point; release with ReleaseSnapshot.
  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  /// Write barrier (paper §3.1.2 writeBarrier): flushes the active memtable
  /// to an SSTable. When `wait`, blocks until the flush (and any pending
  /// one) has completed and the data is on storage.
  virtual Status FlushMemTable(bool wait) = 0;

  /// Manually compacts the user-key range [begin, end]; either bound may be
  /// null for "unbounded". Only files (and, on a sharded store, shards)
  /// whose key range overlaps the request are compacted; shards compact
  /// concurrently. No-op with compaction disabled.
  virtual Status CompactRange(const Slice* begin, const Slice* end) = 0;

  /// Manually compacts the whole key range.
  Status CompactRange() { return CompactRange(nullptr, nullptr); }

  /// OK while the engine is healthy. Once a WAL/manifest/flush failure has
  /// latched the engine into sticky read-only mode, returns the ReadOnly
  /// status every subsequent write receives. Reads keep working either way;
  /// reopen the DB to clear the condition.
  virtual Status HealthStatus() const { return Status::OK(); }

  /// Engine statistics. On a sharded store these are whole-store
  /// aggregates: each statistic folds across shards by its declared kind
  /// (LSMIO_DB_STATS).
  virtual DbStats GetStats() const = 0;

  /// Per-shard counter breakdown (the verbose form of GetStats). Unsharded
  /// stores report a single entry identical to GetStats.
  virtual void GetShardStats(std::vector<DbStats>* out) const {
    out->assign(1, GetStats());
  }
};

}  // namespace lsmio::lsm
