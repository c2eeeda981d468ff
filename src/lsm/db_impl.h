// DBImpl: the concrete engine behind lsm::DB. Writes go through a
// LevelDB/RocksDB-style group-commit queue: concurrent writers line up,
// the front writer merges the pending batches and performs one WAL
// append/sync for the whole group with the mutex released. Memtables roll
// into a queue of immutables (max_write_buffer_number) flushed on a flush
// pool; compactions run on a separate compaction pool, so a long
// compaction never blocks a flush. Leveled compaction can be disabled
// entirely (paper mode: flushes accumulate as L0 files).
#pragma once

#include <algorithm>
#include <atomic>
#include <deque>
#include <list>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rate_limiter.h"
#include "common/synchronization.h"
#include "common/thread_pool.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/log_writer.h"
#include "lsm/memory_budget.h"
#include "lsm/memtable.h"
#include "lsm/read_stats.h"
#include "lsm/table_cache.h"
#include "lsm/value_log.h"
#include "lsm/version.h"
#include "lsm/write_controller.h"

namespace lsmio::lsm {

class FilterPolicy;

/// The background executors of one store. Memtable flushes and
/// ArbiterFlushCall run on `flush`, max(1, background_threads) threads.
/// Compactions run on `compaction`, max(1, background_threads - 1)
/// threads: the pool's size is the store-wide cap on concurrent
/// compactions, and its FIFO queue together with each DB's
/// compaction_scheduled_ flag runs at most one compaction per shard and
/// serves the shards in turn. A store that can never compact
/// (disable_compaction or read_only) starts no compaction thread. A
/// ShardedDB owns one and lends it to its shards; a standalone DBImpl owns
/// its own. Every member is internally synchronized.
struct Background {
  explicit Background(const Options& options);

  /// Background-I/O byte budget (Options::bytes_per_sec); null = unlimited.
  /// Charged outside any DB mutex by flush and compaction writers.
  std::unique_ptr<RateLimiter> rate_limiter;
  /// Compactions executing now and their high-water mark.
  std::atomic<uint64_t> compactions_running{0};
  std::atomic<uint64_t> peak_compactions_running{0};
  // The pools come last, so their threads are joined before the members
  // above are destroyed.
  ThreadPool flush;
  std::unique_ptr<ThreadPool> compaction;  // null when the store never compacts
};

class DBImpl final : public DB {
 public:
  /// `shared_background` lets a ShardedDB run its DBImpl sub-LSMs on one
  /// set of pools with one store-wide compaction cap and byte budget; it
  /// must outlive this object. When null (the standalone single-LSM case)
  /// the DBImpl owns its own.
  DBImpl(const Options& options, const std::string& dbname,
         Background* shared_background = nullptr);
  ~DBImpl() override;

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  Status MultiGet(const ReadOptions& options, std::span<const Slice> keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status FlushMemTable(bool wait) override;
  using DB::CompactRange;
  Status CompactRange(const Slice* begin, const Slice* end) override;
  Status HealthStatus() const override;
  DbStats GetStats() const override;
  uint64_t ApproximateMemoryUsage() const override;

 private:
  friend class DB;
  friend class ShardedDB;  // calls Initialize() on its sub-LSMs
  struct SnapshotImpl;

  /// One queued DB::Write (or memtable-switch request when batch == nullptr).
  /// Lives on the caller's stack; linked into writers_ under mu_.
  struct Writer {
    Writer(WriteBatch* b, bool s, Mutex* mu) : batch(b), sync(s), cv(mu) {}
    WriteBatch* batch;  // nullptr => force a memtable switch (FlushMemTable)
    bool sync;
    bool done = false;  // guarded by the DB mutex the cv is bound to
    Status status;      // guarded by the DB mutex the cv is bound to
    CondVar cv;
  };

  vfs::Vfs& fs() const;

  Status Initialize() EXCLUDES(mu_);         // open/create + recover
  Status NewDb() REQUIRES(mu_);              // write fresh CURRENT/manifest
  Status RecoverLogFile(uint64_t log_number, SequenceNumber* max_sequence)
      REQUIRES(mu_);
  WriteBatch* BuildBatchGroup(Writer** last_writer) REQUIRES(mu_);
  /// WAL-time key/value separation (leader-side, mu_ released or held —
  /// touches only leader-owned scratch and the internally-locked value
  /// log). Values of at least Options::value_log_threshold bytes are
  /// appended to the value log and their ops rewritten as kValuePointer.
  /// Returns `batch` untouched when nothing separates, else the rebuilt
  /// tmp_vlog_batch_ carrying the same sequence and op count/order (the
  /// per-writer sequence stamping stays valid).
  WriteBatch* SeparateLargeValues(WriteBatch* batch, Status* s);
  /// Admission control for the write path, called by the group-commit
  /// leader with `batch_bytes` = the caller's batch payload. Switches/
  /// queues memtables, hard-stalls on a full immutable queue or an L0 at
  /// the stop trigger, and — between the soft and hard L0 triggers —
  /// injects the write controller's graduated pacing delay (at most once
  /// per call; batch_bytes == 0 is exempt).
  Status MakeRoomForWrite(uint64_t batch_bytes) REQUIRES(mu_);
  Status SwitchMemTable() REQUIRES(mu_);
  /// Recomputes the write controller's pressure from the current L0 file
  /// count and immutable-queue depth. Call after anything that changes
  /// either (memtable switch, flush/compaction install, recovery).
  void RefreshWritePressure() REQUIRES(mu_);
  /// Stall causes a writer can park on.
  enum StallCause { kStallMemTable, kStallL0 };
  /// Blocks the caller on stall_cv_ and charges the wait to the cause's
  /// stall counter. Only the front of writers_ (a group-commit leader or a
  /// FlushMemTable switch request) stalls, so waits never overlap and the
  /// counters add up to wall-clock time.
  void StallWait(StallCause cause) REQUIRES(mu_);
  bool MemTableQueueFull() const REQUIRES(mu_) {
    return 1 + static_cast<int>(imm_queue_.size()) >=
           std::max(2, options_.max_write_buffer_number);
  }

  /// Latches the first background/write-pipeline failure. Once set, the
  /// engine is in sticky read-only mode: reads keep serving, every write
  /// entry point fails with ReadOnlyError() until the DB is reopened.
  void RecordBackgroundError(const Status& s) REQUIRES(mu_);
  /// The typed status writes receive while bg_error_ is latched.
  Status ReadOnlyError() const REQUIRES(mu_);

  // --- global write-memory pool (Options::write_memory_pool) ---
  /// Reports current memtable residency (active + immutable bytes) to the
  /// pool; `wrote` marks write activity for its cold-first victim policy.
  /// May synchronously invoke victim callbacks (ours or other stores') —
  /// those only set flags and submit pool tasks, never take a DB mutex.
  void ReportPoolUsage(bool wrote) REQUIRES(mu_);
  /// Victim callback invoked by the pool (pool mutex held, no DB mutex),
  /// and by a leader that ends its group with the request still pending
  /// (mu_ held). Non-blocking: flags a switch for the next group-commit
  /// leader and schedules ArbiterFlushCall for stores with no writer in
  /// flight.
  void RequestArbiterFlush();
  /// Background half of the victim protocol: switches an idle store's
  /// memtable (an empty writer queue under mu_ gives leader-grade
  /// exclusivity) or falls back to scheduling/deferring.
  void ArbiterFlushCall() EXCLUDES(mu_);

  void MaybeScheduleFlush() REQUIRES(mu_);
  void MaybeScheduleCompaction() REQUIRES(mu_);
  void BackgroundFlushCall() EXCLUDES(mu_);
  void BackgroundCompactionCall() EXCLUDES(mu_);
  /// File number for a new table output, added to pending_outputs_ (the
  /// TableOutputWriter callback).
  uint64_t NewOutputNumber() REQUIRES(mu_);
  Status CompactMemTable(MemTable* imm) EXCLUDES(mu_);
  bool NeedsCompaction() const REQUIRES(mu_);
  /// True when value-log GC wants a compaction: some segment's garbage
  /// ratio crossed the threshold and a current table file still pins it.
  bool NeedsGcCompaction() const REQUIRES(mu_);
  /// Picks the pinning file(s) for a GC-driven compaction (lowest level
  /// first; all of L0 together to preserve newest-file-first shadowing).
  /// Returns the input level, or -1 when no file pins a candidate.
  int PickGcCompaction(std::vector<FileMetaData>* inputs) const REQUIRES(mu_);
  /// True when the file's user-key span intersects the manual compaction
  /// range currently installed (unbounded sides always match).
  bool FileOverlapsManualRange(const FileMetaData& f) const REQUIRES(mu_);
  Status BackgroundCompaction() EXCLUDES(mu_);
  /// Merges `level_inputs` (at `level`) + `next_inputs` (at `output_level`)
  /// into fresh tables installed at `output_level`. Normally output_level
  /// == level + 1; a GC-driven rewrite of bottom-level files passes
  /// output_level == level with no next_inputs. Live values in blob
  /// segments past the GC garbage threshold are relocated to the active
  /// segment under their original sequence numbers.
  Status CompactFiles(int level, const std::vector<FileMetaData>& level_inputs,
                      const std::vector<FileMetaData>& next_inputs,
                      int output_level) EXCLUDES(mu_);
  void RemoveObsoleteFiles() REQUIRES(mu_);

  /// What a read works against: the sequence it reads at, and the
  /// memtable, immutables and Version it reads, each pinned so that a
  /// concurrent switch, flush or install cannot free them. The memtable
  /// pins drop with the view.
  struct ReadView {
    ReadView() = default;
    ReadView(const ReadView&) = delete;
    ReadView& operator=(const ReadView&) = delete;
    ~ReadView() {
      if (mem != nullptr) mem->Unref();
      for (MemTable* imm : imms) imm->Unref();
    }

    SequenceNumber sequence = 0;
    MemTable* mem = nullptr;
    std::vector<MemTable*> imms;  // newest first
    std::shared_ptr<Version> current;
  };
  /// Pins the current read view into the empty *view, at
  /// options.snapshot_sequence or, when that is 0, the latest sequence.
  void PinReadView(const ReadOptions& options, ReadView* view) REQUIRES(mu_);
  /// The one lookup path, for Get (one request) and MultiGet: answers each
  /// request from `view` newest first — memtable, immutables, then the
  /// Version's level walk — and resolves separated values through the
  /// value log. Reorders `reqs`. Returns the level walk's failure, which
  /// the requests the walk left unanswered carry as their status.
  Status Lookup(const ReadOptions& options, const ReadView& view,
                std::span<Version::GetRequest*> reqs) const EXCLUDES(mu_);
  /// Iterator over the internal keys of a pinned view; *sequence receives
  /// the view's sequence.
  Iterator* NewInternalIterator(const ReadOptions& options,
                                SequenceNumber* sequence) EXCLUDES(mu_);
  SequenceNumber SmallestSnapshot() const REQUIRES(mu_);

  // --- immutable after construction (unguarded: set by Open/Initialize
  // before any concurrent access; block_cache_ is internally synchronized)
  Options options_;
  std::string dbname_;
  InternalKeyComparator internal_comparator_;
  std::unique_ptr<const FilterPolicy> filter_policy_;
  /// Block cache in use: Options::block_cache when a shared (arbiter-owned)
  /// cache is configured — it must outlive this DB — else the privately
  /// owned one below. Inserts are charged to Options::tenant_id.
  Cache* block_cache_ = nullptr;
  std::unique_ptr<Cache> owned_block_cache_;
  /// Read-path counters updated lock-free by tables on reader threads;
  /// folded into DbStats by GetStats. Must outlive table_cache_.
  ReadCounters read_counters_;  // unguarded: lock-free atomic counters
  std::unique_ptr<TableCache> table_cache_;  // unguarded: set once; internally synchronized
  /// Blob segments for WAL-time key/value separation. Created by
  /// Initialize when Options::value_log_threshold > 0 or the store already
  /// has segments on disk (so a reopen with threshold=0 still resolves and
  /// GCs existing pointers); null otherwise. Immutable after Initialize;
  /// the ValueLog itself is internally synchronized (lock order:
  /// mu_ -> ValueLog::mu_, never the reverse). unguarded: see above.
  std::unique_ptr<ValueLog> vlog_;

  // --- concurrency state ---
  // Lock hierarchy (DESIGN.md §9): Manager -> LsmStore -> DBImpl::mu_ ->
  // cache shard mutexes / VFS-internal mutexes. mu_ is the engine-wide
  // mutex; compiler-enforced via the GUARDED_BY/REQUIRES annotations below.
  mutable Mutex mu_;
  CondVar bg_cv_{&mu_};
  /// The writer hard-stalled in StallWait parks here instead of on bg_cv_,
  /// so only flush and compaction installs (and a read-only latch) wake
  /// it. bg_cv_ keeps serving the broadcast-style completion waits
  /// (FlushMemTable(wait), CompactRange, the destructor).
  CondVar stall_cv_{&mu_};

  /// Graduated-backpressure state (Options::l0_slowdown_writes_trigger).
  WriteController write_controller_ GUARDED_BY(mu_);
  SystemClock* const clock_ = SystemClock::Default();

  /// unguarded: lock-free latency recorders (atomic buckets), updated
  /// outside mu_ on the operation's own thread, folded into DbStats
  /// snapshots by GetStats.
  LatencyHistogram write_latency_rec_;
  LatencyHistogram get_latency_rec_;   // unguarded: see write_latency_rec_
  LatencyHistogram multiget_latency_rec_;  // unguarded: see write_latency_rec_
  std::unique_ptr<VersionSet> versions_ GUARDED_BY(mu_);
  // mem_/log_/logfile_/tmp_batch_ follow the group-commit hybrid contract:
  // mutated only by the writers_ front ("leader"), which keeps exclusive
  // ownership even while mu_ is released for the WAL append/sync. All other
  // threads may only read the mem_ pointer under mu_ (taking a ref). The
  // static analysis cannot express leader exclusivity, so these members are
  // deliberately unguarded: leader-owned.
  MemTable* mem_ = nullptr;
  std::deque<MemTable*> imm_queue_ GUARDED_BY(mu_);  // oldest first; front
                                                     // flushes next
  // Parallel to imm_queue_: the WAL number that became active when the
  // corresponding memtable was retired. Once that memtable is flushed, WALs
  // below this number are no longer needed for recovery.
  std::deque<uint64_t> imm_log_queue_ GUARDED_BY(mu_);
  std::unique_ptr<vfs::WritableFile> logfile_;  // unguarded: leader-owned (see mem_)
  uint64_t logfile_number_ GUARDED_BY(mu_) = 0;
  std::unique_ptr<log::Writer> log_;  // unguarded: leader-owned (see mem_)
  std::deque<Writer*> writers_ GUARDED_BY(mu_);  // front = leader
  WriteBatch tmp_batch_;  // unguarded: leader-owned scratch for merged write groups
  WriteBatch tmp_vlog_batch_;  // unguarded: leader-owned scratch for separated groups
  bool flush_scheduled_ GUARDED_BY(mu_) = false;
  bool compaction_scheduled_ GUARDED_BY(mu_) = false;
  bool manual_compaction_requested_ GUARDED_BY(mu_) = false;
  // Manual (CompactRange) state: the requested user-key range, and a
  // completion generation counter so overlapping CompactRange callers each
  // wait for their own request instead of a re-armed flag.
  bool manual_has_begin_ GUARDED_BY(mu_) = false;
  bool manual_has_end_ GUARDED_BY(mu_) = false;
  std::string manual_begin_ GUARDED_BY(mu_);
  std::string manual_end_ GUARDED_BY(mu_);
  uint64_t manual_done_gen_ GUARDED_BY(mu_) = 0;
  Status bg_error_ GUARDED_BY(mu_);
  std::atomic<bool> shutting_down_{false};

  // --- write-memory pool attachment (Options::write_memory_pool) ---
  /// Pool attachment id; 0 = not attached. unguarded: set once in
  /// Initialize before concurrent access, cleared only by the destructor.
  uint64_t pool_attachment_ = 0;
  /// Set by the pool's victim callback; honoured by the group-commit
  /// leader in MakeRoomForWrite or by ArbiterFlushCall on idle stores, and
  /// cleared by every SwitchMemTable, whatever its cause.
  std::atomic<bool> arbiter_switch_requested_{false};
  /// True while an ArbiterFlushCall is queued/running on the flush pool; the
  /// destructor waits it out (cleared under mu_, signalled via bg_cv_).
  std::atomic<bool> arbiter_task_pending_{false};

  /// Table outputs being written, which the obsolete-file sweep must keep.
  /// A number leaves in the critical section that installs its table. A
  /// failed job's numbers stay: its error latches the store read-only,
  /// which stops the sweep, and ~TableOutputWriter removes its files.
  std::set<uint64_t> pending_outputs_ GUARDED_BY(mu_);
  std::list<const SnapshotImpl*> snapshots_ GUARDED_BY(mu_);
  DbStats stats_ GUARDED_BY(mu_);

  /// The store's pools, rate limiter and compaction gauges: a ShardedDB's,
  /// which outlives every shard, or owned_background_. unguarded: set in
  /// the constructor; internally synchronized.
  Background* background_ = nullptr;
  std::unique_ptr<Background> owned_background_;  // unguarded: see background_
};

}  // namespace lsmio::lsm
