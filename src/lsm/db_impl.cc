#include "lsm/db_impl.h"

#include <algorithm>
#include <cassert>

#include "common/inline_vector.h"
#include "common/logging.h"
#include "lsm/builder.h"
#include "lsm/cache.h"
#include "lsm/comparator.h"
#include "lsm/compaction_pipeline.h"
#include "lsm/db_iter.h"
#include "lsm/filter_policy.h"
#include "lsm/log_reader.h"
#include "lsm/merger.h"
#include "vfs/posix_vfs.h"

namespace lsmio::lsm {

namespace {

// Bloom filter bits per key in every table (about 1% false positives).
constexpr int kBloomBitsPerKey = 10;
// Capacity of the block cache a DB owns when Options::block_cache is null.
constexpr uint64_t kBlockCacheCapacity = 8 * MiB;
// Readahead window for compaction input reads: each input table iterator
// reads its blocks in runs of this many bytes, one VFS read per run.
constexpr uint64_t kCompactionReadaheadBytes = 1 * MiB;

}  // namespace

Background::Background(const Options& options)
    : flush(std::max(1, options.background_threads)) {
  if (options.bytes_per_sec > 0) {
    rate_limiter = std::make_unique<RateLimiter>(options.bytes_per_sec);
  }
  if (!options.disable_compaction && !options.read_only) {
    compaction =
        std::make_unique<ThreadPool>(std::max(1, options.background_threads - 1));
  }
}

struct DBImpl::SnapshotImpl final : Snapshot {
  explicit SnapshotImpl(SequenceNumber s) : sequence(s) {}
  SequenceNumber sequence;
};

DBImpl::DBImpl(const Options& options, const std::string& dbname,
               Background* shared_background)
    : options_(options),
      dbname_(dbname),
      internal_comparator_(BytewiseComparator()),
      filter_policy_(NewBloomFilterPolicy(kBloomBitsPerKey)),
      write_controller_(options) {
  if (!options_.disable_cache) {
    if (options_.block_cache != nullptr) {
      block_cache_ = options_.block_cache;  // shared, arbiter-owned
    } else {
      owned_block_cache_ = NewLRUCache(kBlockCacheCapacity);
      block_cache_ = owned_block_cache_.get();
    }
  }
  table_cache_ = std::make_unique<TableCache>(
      dbname_, options_, &internal_comparator_, filter_policy_.get(),
      block_cache_, /*entries=*/1000, &read_counters_);
  versions_ = std::make_unique<VersionSet>(dbname_, options_,
                                           &internal_comparator_,
                                           table_cache_.get());
  // The VersionSet is guarded by mu_; install it so every VersionSet entry
  // point can debug-assert the cross-object lock contract.
  versions_->SetOwnerMutex(&mu_);
  if (shared_background == nullptr) {
    owned_background_ = std::make_unique<Background>(options_);
    shared_background = owned_background_.get();
  }
  background_ = shared_background;
}

DBImpl::~DBImpl() {
  // Detach from the write-memory pool before anything else: after Detach
  // returns, the pool's victim callback can never fire again, so at most
  // one already-submitted ArbiterFlushCall can still reference this object
  // — the wait below covers it.
  if (pool_attachment_ != 0) {
    options_.write_memory_pool->Detach(pool_attachment_);
    pool_attachment_ = 0;
  }
  {
    MutexLock lock(&mu_);
    shutting_down_.store(true);
    while (flush_scheduled_ || compaction_scheduled_ ||
           arbiter_task_pending_.load(std::memory_order_acquire)) {
      bg_cv_.Wait();
    }
  }
  owned_background_.reset();  // joins the pools of a standalone DB
  if (mem_ != nullptr) mem_->Unref();
  for (MemTable* imm : imm_queue_) imm->Unref();
  if (logfile_ != nullptr) {
    // Destructor: nowhere to propagate. Everything acked under sync_writes
    // was already fsynced; under async WAL config a close failure here is
    // within the documented may-lose-unsynced-tail contract, but it still
    // deserves a trace in the log.
    Status s = logfile_->Close();
    if (!s.ok()) LSMIO_WARN << "WAL close failed in ~DBImpl: " << s.ToString();
  }
}

vfs::Vfs& DBImpl::fs() const {
  return options_.vfs != nullptr ? *options_.vfs : vfs::PosixVfs();
}

Status DBImpl::NewDb() {
  LSMIO_RETURN_IF_ERROR(fs().CreateDir(dbname_));
  return versions_->WriteSnapshot();
}

Status DBImpl::Initialize(bool create) {
  MutexLock lock(&mu_);

  bool save_manifest = false;
  std::vector<uint64_t> logs;
  bool blob_files_on_disk = false;
  if (create) {
    LSMIO_RETURN_IF_ERROR(NewDb());
  } else {
    LSMIO_RETURN_IF_ERROR(versions_->Recover(&save_manifest));

    // Replay any WAL files at or after the recorded log number, in order.
    std::vector<std::string> children;
    LSMIO_RETURN_IF_ERROR(fs().ListDir(dbname_, &children));
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (!ParseFileName(child, &number, &type)) continue;
      if (type == FileType::kLogFile && number >= versions_->LogNumber()) {
        logs.push_back(number);
      } else if (type == FileType::kBlobFile) {
        blob_files_on_disk = true;
      }
    }
    std::sort(logs.begin(), logs.end());
  }

  // The value log must be open before WAL replay: replayed pointer ops
  // are validated against the blob segments, and a store created with
  // value_log_threshold > 0 but reopened with 0 must still resolve (and
  // eventually GC) its existing pointers.
  if (options_.value_log_threshold > 0 || blob_files_on_disk ||
      !versions_->recovered_blob_segments().empty()) {
    vlog_ = std::make_unique<ValueLog>(options_, dbname_, &fs());
    LSMIO_RETURN_IF_ERROR(vlog_->Open(versions_->recovered_blob_segments()));
    versions_->SetBlobSegmentProvider([this] { return vlog_->LiveSegments(); });
  }
  SequenceNumber max_sequence = versions_->LastSequence();
  for (const uint64_t log_number : logs) {
    LSMIO_RETURN_IF_ERROR(RecoverLogFile(log_number, &max_sequence));
  }
  versions_->SetLastSequence(max_sequence);
  if (save_manifest && !options_.read_only) {
    LSMIO_RETURN_IF_ERROR(versions_->WriteSnapshot());
  }

  // Fresh active memtable + WAL (read-only recovery may already have
  // installed a memtable holding replayed WAL records).
  if (mem_ == nullptr) {
    mem_ = new MemTable(internal_comparator_);
    mem_->Ref();
  }
  if (!options_.disable_wal && !options_.read_only) {
    logfile_number_ = versions_->NewFileNumber();
    LSMIO_RETURN_IF_ERROR(fs().NewWritableFile(
        LogFileName(dbname_, logfile_number_), {}, &logfile_));
    log_ = std::make_unique<log::Writer>(logfile_.get());
    versions_->SetLogNumber(logfile_number_);
    LSMIO_RETURN_IF_ERROR(versions_->WriteSnapshot());
  }

  if (!options_.read_only) RemoveObsoleteFiles();
  // Recovery may have left L0 files behind; start pacing from that state
  // rather than from zero.
  RefreshWritePressure();

  // Attach to the global write-memory pool last, once recovery can no
  // longer fail: a registered victim callback must always have a live,
  // fully-initialized DB behind it. Read-only stores never flush, so they
  // stay detached.
  if (options_.write_memory_pool != nullptr && !options_.read_only) {
    pool_attachment_ = options_.write_memory_pool->Attach(
        options_.tenant_id, [this] { RequestArbiterFlush(); });
    ReportPoolUsage(/*wrote=*/false);  // recovery may have refilled mem_
  }
  return Status::OK();
}

Status DBImpl::RecoverLogFile(uint64_t log_number, SequenceNumber* max_sequence) {
  const std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<vfs::SequentialFile> file;
  Status s = fs().NewSequentialFile(fname, {}, &file);
  if (s.IsNotFound()) return Status::OK();
  LSMIO_RETURN_IF_ERROR(s);

  struct Reporter final : log::Reader::Reporter {
    void Corruption(size_t bytes, const Status& reason) override {
      LSMIO_WARN << "dropping " << bytes << " bytes of WAL: " << reason.ToString();
    }
  } reporter;

  log::Reader reader(file.get(), &reporter, /*checksum=*/true);
  Slice record;
  std::string scratch;
  // Replay flushes the memtable to a level-0 table whenever it outgrows the
  // write buffer, and once more at the end of the log. Read-only opens never
  // flush: every log's records accumulate into one memtable that becomes
  // the active one.
  MemTable* mem = options_.read_only ? mem_ : nullptr;
  mem_ = nullptr;
  for (bool more = true; more;) {
    more = reader.ReadRecord(&record, &scratch);
    if (more) {
      if (mem == nullptr) {
        mem = new MemTable(internal_comparator_);
        mem->Ref();
      }
      WriteBatch batch;
      s = WriteBatch::SetContents(&batch, record);
      // Pointer ops are checked against the value log: a crash can persist
      // a WAL record whose blob bytes were never synced (only unacked
      // writes), and the key then resolves to its previous version.
      if (s.ok()) s = batch.InsertInto(mem, vlog_.get());
      if (!s.ok()) {
        mem->Unref();
        return s;
      }
      const SequenceNumber last =
          batch.Sequence() + static_cast<SequenceNumber>(batch.Count()) - 1;
      if (last > *max_sequence) *max_sequence = last;
    }
    if (options_.read_only || mem == nullptr) continue;
    if (more ? mem->ApproximateMemoryUsage() <= options_.write_buffer_size
             : mem->num_entries() == 0) {
      continue;
    }

    // Recovery runs under mu_ and rebuilds at full speed (no rate limiter).
    TableOutputWriter out(dbname_, fs(), options_, &internal_comparator_, filter_policy_.get(),
                          [this] {
                            mu_.AssertHeld();
                            return NewOutputNumber();
                          },
                          /*rate_limiter=*/nullptr, RateLimiter::Priority::kHigh,
                          /*roll=*/false);
    std::unique_ptr<Iterator> iter(mem->NewIterator());
    s = out.AddAll(iter.get());
    iter.reset();
    mem->Unref();
    mem = nullptr;
    LSMIO_RETURN_IF_ERROR(s);
    LSMIO_RETURN_IF_ERROR(InstallTables(out, 0, {}));
  }

  if (options_.read_only) {
    mem_ = mem;
  } else if (mem != nullptr) {
    mem->Unref();  // replayed no entries
  }
  return Status::OK();
}

// --- writes -------------------------------------------------------------------

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  if (options_.read_only) {
    return Status::InvalidArgument("database opened read-only");
  }
  const uint64_t op_start_micros = clock_->NowMicros();

  Writer w(updates, options.sync || options_.sync_writes, &mu_);
  MutexLock lock(&mu_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) w.cv.Wait();
  if (w.done) {
    write_latency_rec_.Record(clock_->NowMicros() - op_start_micros);
    return w.status;
  }

  // This thread is the leader: until it pops itself off writers_, it has
  // exclusive ownership of mem_/log_/logfile_, even across the unlock below.
  Status status = MakeRoomForWrite(updates->ApproximateSize());
  Writer* last_writer = &w;
  if (status.ok()) {
    WriteBatch* write_batch = BuildBatchGroup(&last_writer);
    SequenceNumber last_sequence = versions_->LastSequence();
    write_batch->SetSequence(last_sequence + 1);
    // Stamp every batch in the group with its own starting sequence, so a
    // follower can read its assigned sequence back (e.g. to pin reads at
    // its write point) even though only the merged batch hits the WAL.
    SequenceNumber writer_sequence = last_sequence + 1;
    for (auto it = writers_.begin();; ++it) {
      Writer* writer = *it;
      writer->batch->SetSequence(writer_sequence);
      writer_sequence += static_cast<SequenceNumber>(writer->batch->Count());
      if (writer == last_writer) break;
    }
    last_sequence += static_cast<SequenceNumber>(write_batch->Count());

    uint64_t wal_bytes = 0;
    WriteBatch::Applied applied;
    WriteBatch* log_batch = write_batch;
    {
      // One WAL append + (at most) one fsync for the whole group; followers
      // and concurrent readers proceed against the published memtable while
      // the leader does the I/O.
      lock.Unlock();
      // WAL-time separation first: blob bytes are appended before the WAL
      // record that points at them, and synced before it (below), so any
      // WAL-durable pointer has durable blob bytes behind it.
      if (vlog_ != nullptr) status = vlog_->Separate(write_batch, &tmp_vlog_batch_, &log_batch);
      if (status.ok() && !options_.disable_wal) {
        status = log_->AddRecord(log_batch->Contents());
        wal_bytes = log_batch->Contents().size();
        if (status.ok() && w.sync) {
          if (vlog_ != nullptr) status = vlog_->Sync();
          if (status.ok()) status = logfile_->Sync();
        }
      }
      if (status.ok()) status = log_batch->InsertInto(mem_, nullptr, &applied);
      lock.Lock();
    }
    if (status.ok()) {
      versions_->SetLastSequence(last_sequence);
      stats_.wal_bytes += wal_bytes;
      stats_.bytes_written += write_batch->Contents().size();
      if (log_batch != write_batch) ++stats_.value_log_separated_batches;
      stats_.puts += applied.puts;
      stats_.deletes += applied.deletes;
      ++stats_.group_commit_batches;
    } else {
      // The WAL may hold a torn record (or an append that was never
      // fsync'ed), or the memtable a partial batch. Accepting more writes
      // after the failure point could append valid records *behind* the torn
      // tail and make recovery replay an inconsistent sequence — latch
      // read-only instead.
      RecordBackgroundError(status);
    }
    if (write_batch == &tmp_batch_) tmp_batch_.Clear();
    if (log_batch == &tmp_vlog_batch_) tmp_vlog_batch_.Clear();
    if (status.ok()) ReportPoolUsage(/*wrote=*/true);
  }
  ServeArbiterRequest();

  // Mark every writer in the group done and hand leadership to the next.
  for (;;) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    ++stats_.group_commit_writers;
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.Signal();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) writers_.front()->cv.Signal();
  write_latency_rec_.Record(clock_->NowMicros() - op_start_micros);
  return status;
}

void DBImpl::RecordBackgroundError(const Status& s) {
  assert(!s.ok());
  if (bg_error_.ok()) {
    LSMIO_WARN << "entering read-only mode: " << s.ToString();
    bg_error_ = s;
    // Wake writers stalled in MakeRoomForWrite/FlushMemTable so they can
    // observe the latch and fail instead of waiting forever.
    bg_cv_.SignalAll();
    stall_cv_.SignalAll();
  }
}

Status DBImpl::ReadOnlyError() const {
  assert(!bg_error_.ok());
  return Status::ReadOnly("store is read-only after background error: " +
                          bg_error_.ToString());
}

Status DBImpl::HealthStatus() const {
  MutexLock lock(&mu_);
  return bg_error_.ok() ? Status::OK() : ReadOnlyError();
}

WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer) {
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);
  size_t size = result->ApproximateSize();

  // Large enough to amortize the fsync, but capped so a stream of tiny
  // writes is not held hostage to a giant group (LevelDB's heuristic).
  size_t max_size = 1 * MiB;
  if (size <= 128 * KiB) max_size = size + 128 * KiB;

  *last_writer = first;
  for (auto it = std::next(writers_.begin()); it != writers_.end(); ++it) {
    Writer* w = *it;
    if (w->batch == nullptr) break;      // memtable-switch request: own group
    if (w->sync && !first->sync) break;  // never weaken a sync writer
    size += w->batch->ApproximateSize();
    if (size > max_size) break;
    if (result == first->batch) {
      // Switch to the scratch batch; the leader's own batch must not be
      // mutated (the caller owns it).
      result = &tmp_batch_;
      assert(result->Count() == 0);
      result->Append(*first->batch);
    }
    result->Append(*w->batch);
    *last_writer = w;
  }
  return result;
}

void DBImpl::RefreshWritePressure() {
  write_controller_.UpdatePressure(versions_->current()->NumFiles(0),
                                   static_cast<int>(imm_queue_.size()));
  if (options_.write_memory_pool != nullptr) {
    // Budget pressure from the whole process's memtables: paces writers
    // through the same leaky bucket instead of hard-stalling them.
    write_controller_.SetGlobalPressure(
        options_.write_memory_pool->GlobalPressure());
  }
}

uint64_t DBImpl::MemTableBytes() const {
  uint64_t bytes = mem_ != nullptr ? mem_->ApproximateMemoryUsage() : 0;
  for (const MemTable* imm : imm_queue_) bytes += imm->ApproximateMemoryUsage();
  return bytes;
}

void DBImpl::ReportPoolUsage(bool wrote) {
  if (pool_attachment_ == 0) return;
  options_.write_memory_pool->UpdateUsage(pool_attachment_, MemTableBytes(), wrote);
}

void DBImpl::RequestArbiterFlush() {
  // Must not block: the pool invokes this under its own mutex.
  arbiter_switch_requested_.store(true, std::memory_order_release);
  if (!arbiter_task_pending_.exchange(true, std::memory_order_acq_rel)) {
    background_->flush.Submit([this] { ArbiterFlushCall(); });
  }
}

void DBImpl::ArbiterFlushCall() {
  MutexLock lock(&mu_);
  // Cleared before serving (under mu_): a victim request arriving later
  // schedules a fresh call instead of being silently absorbed.
  arbiter_task_pending_.store(false, std::memory_order_release);
  // A queued writer serves the request when it finishes at the front. An
  // idle store (the common victim: cold tenants have no writers in flight)
  // is served here: an empty writer queue under mu_ gives this thread the
  // front's mem_/log_ exclusivity.
  if (writers_.empty()) ServeArbiterRequest();
  bg_cv_.SignalAll();
}

void DBImpl::ServeArbiterRequest() {
  if (!arbiter_switch_requested_.exchange(false, std::memory_order_acq_rel) ||
      shutting_down_.load() || !bg_error_.ok()) {
    return;
  }
  if (mem_->num_entries() == 0 || MemTableQueueFull() ||
      (!options_.disable_compaction &&
       versions_->current()->NumFiles(0) >= options_.l0_stop_writes_trigger)) {
    // Nothing to switch, or the switch would park this store's next writer
    // behind its full flush queue or the L0 stop trigger: a stall the
    // arbiter must never induce. Drop the request; in-flight flushes
    // release memory, and the pool re-picks while usage stays over the
    // watermark.
    MaybeScheduleFlush();
    return;
  }
  ++stats_.arbiter_forced_flushes;
  const Status s = SwitchMemTable();
  if (!s.ok()) RecordBackgroundError(s);
  ReportPoolUsage(/*wrote=*/false);
}

void DBImpl::StallWait(StallCause cause) {
  const uint64_t start = clock_->NowMicros();
  stall_cv_.Wait();
  const uint64_t now = clock_->NowMicros();
  const uint64_t elapsed = now > start ? now - start : 0;
  stats_.write_stall_micros += elapsed;
  if (cause == kStallMemTable) {
    stats_.stall_memtable_micros += elapsed;
  } else {
    stats_.stall_l0_micros += elapsed;
  }
}

Status DBImpl::MakeRoomForWrite(uint64_t batch_bytes) {
  bool delay_done = false;
  // Under a global write-memory pool the fixed write_buffer_size stops
  // being the flush trigger: the memtable grows until the pool picks this
  // store as a victim (aggregate budget pressure) or hits the pool's
  // per-attachment hard cap (bounds single-flush size and recovery time).
  const bool pooled = options_.write_memory_pool != nullptr;
  const uint64_t mem_cap = pooled ? options_.write_memory_pool->AttachmentCap()
                                  : options_.write_buffer_size;
  for (;;) {
    if (!bg_error_.ok()) return ReadOnlyError();
    // Cross-store pressure moves with other tenants' writes, not just local
    // events: refresh pacing on every admission attempt.
    if (pooled) RefreshWritePressure();
    if (mem_->ApproximateMemoryUsage() <= mem_cap || mem_->num_entries() == 0) {
      // The empty-memtable check matters when write_buffer_size is smaller
      // than the arena's first block: switching would just install another
      // over-budget empty memtable, forever.
      if (!delay_done && batch_bytes > 0 && write_controller_.ShouldDelay()) {
        // Graduated backpressure: L0 (or the immutable queue) is inside
        // the soft window, so pace this batch instead of racing toward the
        // hard stall. Applied at most once per write, with the mutex
        // released; state is rechecked from the top afterwards.
        delay_done = true;
        const uint64_t delay =
            write_controller_.DelayMicros(clock_->NowMicros(), batch_bytes);
        // Charged to the bucket either way; a zero delay just means the
        // bucket had drained since the last admitted batch.
        ++stats_.slowdown_writes;
        if (delay > 0) {
          stats_.slowdown_delay_micros += delay;
          mu_.Unlock();
          clock_->SleepForMicros(delay);
          mu_.Lock();
          continue;
        }
      }
      return Status::OK();
    }
    if (MemTableQueueFull()) {
      // Every allowed memtable is full and queued; wait for a flush to
      // retire the oldest one (and make sure one is actually scheduled).
      MaybeScheduleFlush();
      StallWait(kStallMemTable);
      continue;
    }
    if (!options_.disable_compaction &&
        versions_->current()->NumFiles(0) >= options_.l0_stop_writes_trigger) {
      // Hard L0 stall. Make sure the compaction that relieves it is
      // actually scheduled before parking.
      MaybeScheduleCompaction();
      StallWait(kStallL0);
      continue;
    }
    LSMIO_RETURN_IF_ERROR(SwitchMemTable());
  }
}

Status DBImpl::SwitchMemTable() {
  assert(!MemTableQueueFull());

  // Roll the WAL together with the memtable.
  if (!options_.disable_wal) {
    const uint64_t new_log_number = versions_->NewFileNumber();
    std::unique_ptr<vfs::WritableFile> new_logfile;
    Status s = fs().NewWritableFile(LogFileName(dbname_, new_log_number), {},
                                    &new_logfile);
    if (!s.ok()) {
      versions_->ReuseFileNumber(new_log_number);
      return s;
    }
    // The retired WAL still covers the memtable headed for the imm queue:
    // recovery replays it until the flush completes. A failed close can
    // drop buffered-but-unsynced acked records while the process is alive
    // and healthy — that is a WAL write failure, so latch read-only mode
    // exactly as a failed Append/Sync would.
    Status close_s = logfile_->Close();
    if (!close_s.ok()) RecordBackgroundError(close_s);
    logfile_ = std::move(new_logfile);
    logfile_number_ = new_log_number;
    log_ = std::make_unique<log::Writer>(logfile_.get());
  }

  imm_queue_.push_back(mem_);
  // logfile_number_ is now the rolled WAL: everything in the retired
  // memtable lives in older WALs, so once it is flushed to an SST the
  // recovery log number can advance to this value.
  imm_log_queue_.push_back(logfile_number_);
  mem_ = new MemTable(internal_comparator_);
  mem_->Ref();
  // Whatever asked for this switch, it serves a pending arbiter request:
  // the memory the pick counted is now headed for a flush. A request left
  // set would switch the near-empty new memtable when the front finishes.
  arbiter_switch_requested_.store(false, std::memory_order_release);
  MaybeScheduleFlush();
  RefreshWritePressure();
  return Status::OK();
}

Status DBImpl::FlushMemTable(bool wait) {
  if (options_.read_only) return Status::OK();  // nothing can be dirty
  MutexLock lock(&mu_);
  if (mem_->num_entries() > 0) {
    // Queue a batch-less writer: the memtable switch must not interleave
    // with a write group that has the mutex dropped.
    Writer w(nullptr, false, &mu_);
    writers_.push_back(&w);
    while (!w.done && &w != writers_.front()) w.cv.Wait();
    assert(!w.done);  // batch-less writers are never absorbed into a group

    Status s = bg_error_.ok() ? Status::OK() : ReadOnlyError();
    if (s.ok() && mem_->num_entries() > 0) {
      while (MemTableQueueFull() && bg_error_.ok()) {
        MaybeScheduleFlush();
        StallWait(kStallMemTable);
      }
      s = bg_error_.ok() ? SwitchMemTable() : ReadOnlyError();
    }
    ServeArbiterRequest();
    writers_.pop_front();
    if (!writers_.empty()) writers_.front()->cv.Signal();
    LSMIO_RETURN_IF_ERROR(s);
  }
  if (wait) {
    while ((!imm_queue_.empty() || flush_scheduled_) && bg_error_.ok()) {
      bg_cv_.Wait();
    }
    if (!bg_error_.ok()) return ReadOnlyError();
  }
  return Status::OK();
}

Status DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  if (options_.disable_compaction || options_.read_only) return Status::OK();
  MutexLock lock(&mu_);
  if (!bg_error_.ok()) return ReadOnlyError();

  // Route by range: when nothing on disk intersects the request this is a
  // fast no-op — on a sharded store that is what keeps a manual compaction
  // away from shards outside the range.
  const KeyRange range{begin, end};
  if (versions_->current()->PickCompaction(options_, &range, {}).level < 0) {
    return Status::OK();
  }

  // One manual request at a time: a second caller waits until the first
  // request has been picked up and completed before installing its own.
  while (manual_compaction_requested_ && bg_error_.ok()) bg_cv_.Wait();
  if (!bg_error_.ok()) return ReadOnlyError();

  manual_compaction_requested_ = true;
  manual_has_begin_ = begin != nullptr;
  manual_has_end_ = end != nullptr;
  manual_begin_ = begin != nullptr ? begin->ToString() : std::string();
  manual_end_ = end != nullptr ? end->ToString() : std::string();
  const uint64_t target_gen = manual_done_gen_ + 1;
  MaybeScheduleCompaction();
  // Wait for this request's completion generation, not just a flag: another
  // caller may re-arm the flag right after ours completes.
  while (manual_done_gen_ < target_gen && bg_error_.ok()) bg_cv_.Wait();
  // Clear on the error path too, so a failed manual compaction cannot
  // wedge later calls.
  if (!bg_error_.ok()) {
    manual_compaction_requested_ = false;
    bg_cv_.SignalAll();
    return ReadOnlyError();
  }
  return Status::OK();
}

// --- background work ----------------------------------------------------------

void DBImpl::MaybeScheduleFlush() {
  if (flush_scheduled_ || shutting_down_.load()) return;
  // Read-only mode: the queue can never drain, so rescheduling would just
  // spin the background thread (and keep the destructor waiting forever).
  if (!bg_error_.ok()) return;
  if (imm_queue_.empty()) return;
  flush_scheduled_ = true;
  background_->flush.Submit([this] { BackgroundFlushCall(); });
}

void DBImpl::MaybeScheduleCompaction() {
  if (compaction_scheduled_ || shutting_down_.load()) return;
  if (!bg_error_.ok()) return;  // read-only: see MaybeScheduleFlush
  if (!NeedsCompaction() && !manual_compaction_requested_) return;
  // At most one compaction per shard is queued or running; the compaction
  // pool's size caps them store-wide and its FIFO queue serves the shards
  // in turn.
  compaction_scheduled_ = true;
  background_->compaction->Submit([this] { BackgroundCompactionCall(); });
}

std::vector<uint64_t> DBImpl::GcSegments() const {
  return vlog_ != nullptr ? vlog_->GcCandidates() : std::vector<uint64_t>{};
}

bool DBImpl::NeedsCompaction() const {
  if (options_.disable_compaction || options_.read_only) return false;
  return versions_->current()->PickCompaction(options_, nullptr, GcSegments()).level >= 0;
}

void DBImpl::BackgroundFlushCall() {
  MutexLock lock(&mu_);
  assert(flush_scheduled_);

  if (!shutting_down_.load() && bg_error_.ok() && !imm_queue_.empty()) {
    MemTable* imm = imm_queue_.front();
    lock.Unlock();
    const Status s = CompactMemTable(imm);
    lock.Lock();
    if (!s.ok()) RecordBackgroundError(s);
  }

  flush_scheduled_ = false;
  MaybeScheduleFlush();       // more immutables may be queued
  MaybeScheduleCompaction();  // the flush may have tipped L0 over
  bg_cv_.SignalAll();
}

void DBImpl::BackgroundCompactionCall() {
  MutexLock lock(&mu_);
  assert(compaction_scheduled_);

  if (!shutting_down_.load() && bg_error_.ok()) {
    const bool manual = manual_compaction_requested_;
    lock.Unlock();
    const uint64_t running = ++background_->compactions_running;
    uint64_t peak = background_->peak_compactions_running.load();
    while (peak < running &&
           !background_->peak_compactions_running.compare_exchange_weak(peak, running)) {
    }
    const Status s = BackgroundCompaction();
    --background_->compactions_running;
    lock.Lock();
    if (manual) {
      manual_compaction_requested_ = false;
      ++manual_done_gen_;
    }
    if (!s.ok()) RecordBackgroundError(s);
  }

  compaction_scheduled_ = false;
  MaybeScheduleCompaction();
  bg_cv_.SignalAll();
}

uint64_t DBImpl::NewOutputNumber() {
  const uint64_t number = versions_->NewFileNumber();
  pending_outputs_.insert(number);
  return number;
}

Status DBImpl::InstallTables(TableOutputWriter& out, int level,
                             const std::vector<std::pair<int, uint64_t>>& deletions) {
  std::vector<std::pair<int, FileMetaData>> additions;
  for (const auto& f : out.outputs()) {
    additions.emplace_back(level, f);
    pending_outputs_.erase(f.number);
  }
  out.Keep();
  return versions_->LogAndApply(versions_->MakeVersion(additions, deletions));
}

Status DBImpl::CompactMemTable(MemTable* imm) {
  // Called without mu_. `imm` stays at the front of imm_queue_ (readable by
  // Get/iterators) until the flush is installed; only this thread pops it.
  assert(imm != nullptr);

  // Flushes gate writer admission, so their table writes are charged at
  // high priority and preempt compaction I/O.
  TableOutputWriter out(dbname_, fs(), options_, &internal_comparator_, filter_policy_.get(),
                        [this] {
                          MutexLock lock(&mu_);
                          return NewOutputNumber();
                        },
                        background_->rate_limiter.get(), RateLimiter::Priority::kHigh,
                        /*roll=*/false);
  std::unique_ptr<Iterator> iter(imm->NewIterator());
  Status s = out.AddAll(iter.get());
  // The table's pointer entries may reference blob bytes no sync barrier
  // has covered yet (non-sync writes); once this flush advances the
  // recovery log number, the WAL stops protecting those records.
  if (s.ok() && vlog_ != nullptr && !out.outputs().empty() &&
      !out.outputs().front().blob_refs.empty()) {
    s = vlog_->Sync();
  }

  MutexLock lock(&mu_);
  if (s.ok() && !out.outputs().empty()) {
    assert(!imm_queue_.empty() && imm_queue_.front() == imm);
    // Advance the recovery log number in the same manifest record that
    // installs the SST. Without this, reopen replays the already-flushed
    // WAL into a fresh (higher-numbered) L0 file; if the WAL's unsynced
    // tail was lost in a crash, that stale replay shadows newer synced
    // data because L0 reads go newest-file-number-first.
    versions_->SetLogNumber(imm_log_queue_.front());
    s = InstallTables(out, 0, {});
    stats_.memtable_flushes += 1;
    stats_.bytes_flushed += out.outputs().front().file_size;
  }
  if (s.ok()) {
    assert(!imm_queue_.empty() && imm_queue_.front() == imm);
    imm_queue_.pop_front();
    imm_log_queue_.pop_front();
    imm->Unref();
    RemoveObsoleteFiles();
    // The flushed memtable's bytes just left the global pool; report before
    // recomputing pressure so pacing sees the release immediately.
    ReportPoolUsage(/*wrote=*/false);
    // A flush slot freed (and L0 grew): recompute pacing pressure and
    // wake the stalled writer.
    RefreshWritePressure();
    stall_cv_.SignalAll();
  }
  return s;
}

Status DBImpl::BackgroundCompaction() {
  // Pick under the lock, merge outside it.
  CompactionPick pick;
  std::vector<uint64_t> gc_segments;
  SequenceNumber smallest_snapshot = 0;
  {
    MutexLock lock(&mu_);
    // A segment stays a GC candidate until its live bytes drain to zero,
    // so relocating against this snapshot of the candidates is safe.
    gc_segments = GcSegments();
    const Slice begin(manual_begin_);
    const Slice end(manual_end_);
    const KeyRange manual{manual_has_begin_ ? &begin : nullptr,
                          manual_has_end_ ? &end : nullptr};
    pick = versions_->current()->PickCompaction(
        options_, manual_compaction_requested_ ? &manual : nullptr, gc_segments);
    smallest_snapshot = SmallestSnapshot();
  }
  if (pick.level < 0) return Status::OK();
  return CompactFiles(pick, gc_segments, smallest_snapshot);
}

Status DBImpl::CompactFiles(const CompactionPick& pick,
                            const std::vector<uint64_t>& gc_segments,
                            SequenceNumber smallest_snapshot) {
  // Merge all inputs.
  std::vector<Iterator*> children;
  ReadOptions read_options;
  read_options.fill_cache = false;
  read_options.readahead_bytes = kCompactionReadaheadBytes;
  uint64_t input_bytes = 0;
  std::vector<std::pair<int, uint64_t>> deletions;
  const auto add_inputs = [&](int level, const std::vector<FileMetaData>& files) {
    for (const auto& f : files) {
      children.push_back(table_cache_->NewIterator(read_options, f.number, f.file_size));
      input_bytes += f.file_size;
      deletions.emplace_back(level, f.number);
    }
  };
  add_inputs(pick.level, pick.inputs);
  add_inputs(pick.output_level, pick.next_inputs);
  std::unique_ptr<Iterator> merged(NewMergingIterator(
      &internal_comparator_, children.data(), static_cast<int>(children.size())));

  // Pipeline stage 1 (producer): block reads + decode + heap merge, i.e.
  // everything behind Next on the merged iterator, run by a background
  // thread that feeds double-buffered entry batches. `source` must be
  // destroyed before `merged` (it drives the iterator from its thread).
  auto source = std::make_unique<PipelinedKvSource>(merged.get());

  // Pipeline stage 3 (output): outputs roll at target_file_size, between
  // user keys. Compaction writes are charged at low priority: under a
  // shared byte budget, a concurrent flush's writes preempt them.
  TableOutputWriter out(dbname_, fs(), options_, &internal_comparator_, filter_policy_.get(),
                        [this] {
                          MutexLock lock(&mu_);
                          return NewOutputNumber();
                        },
                        background_->rate_limiter.get(), RateLimiter::Priority::kLow,
                        /*roll=*/true);
  // Every dropped or kept entry passes through the value log's side of
  // the compaction: garbage accounting and GC relocation.
  ValueLog::Compaction blobs(vlog_.get(), gc_segments);
  Status s;

  // Pipeline stage 2 (consumer, this thread): drop logic + encode + write.
  const Comparator* ucmp = internal_comparator_.user_comparator();
  std::string last_user_key;
  bool has_last_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;

  Slice key;
  Slice value;
  while (s.ok() && source->Next(&key, &value)) {
    ParsedInternalKey ikey;
    if (!ParseInternalKey(key, &ikey)) {
      // Corrupt key: keep it so the corruption stays visible.
      has_last_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
      s = out.Add(key, value);
      continue;
    }
    if (!has_last_user_key || ucmp->Compare(ikey.user_key, Slice(last_user_key)) != 0) {
      last_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
      has_last_user_key = true;
      last_sequence_for_key = kMaxSequenceNumber;
    }
    // Shadowed by a newer entry old enough for everyone, or a tombstone
    // with nothing underneath.
    const bool drop = last_sequence_for_key <= smallest_snapshot ||
                      (ikey.type == ValueType::kDeletion &&
                       ikey.sequence <= smallest_snapshot && pick.bottommost);
    last_sequence_for_key = ikey.sequence;
    if (drop) {
      blobs.Drop(ikey, value);
    } else {
      s = out.Add(key, blobs.Keep(ikey, value));
    }
  }
  if (s.ok()) s = source->status();
  if (s.ok()) s = out.Finish();
  const uint64_t pipeline_batches = source->batches();
  source.reset();  // joins the producer thread before `merged` dies
  if (s.ok()) s = blobs.Sync();

  MutexLock lock(&mu_);
  stats_.compaction_pipeline_batches += pipeline_batches;
  if (!s.ok()) return s;

  // Install: delete inputs, add outputs at output_level.
  blobs.ApplyGarbage();
  for (const auto& f : out.outputs()) stats_.compaction_bytes_written += f.file_size;
  s = InstallTables(out, pick.output_level, deletions);
  if (s.ok()) {
    stats_.compactions += 1;
    stats_.compaction_bytes_read += input_bytes;
    if (vlog_ != nullptr) {
      // Segments drained by this compaction may still be readable through
      // snapshots/iterators holding superseded Versions: seal them against
      // weak references to those Versions and delete only once all expire.
      std::vector<std::weak_ptr<const void>> guards;
      versions_->CollectVersionGuards(&guards);
      vlog_->SealDrained(guards);
    }
    RemoveObsoleteFiles();
    // L0 (or a deeper level) shrank: drop pacing pressure accordingly and
    // wake a writer hard-stalled on the L0 stop trigger.
    RefreshWritePressure();
    stall_cv_.SignalAll();
  }
  return s;
}

void DBImpl::RemoveObsoleteFiles() {
  // mu_ held.
  if (!bg_error_.ok()) return;

  // Reap blob segments whose version guards have expired since the last
  // sweep (iterators/snapshots released).
  if (vlog_ != nullptr) vlog_->SweepDeletable();

  std::vector<uint64_t> live;
  versions_->AddLiveFiles(&live);
  for (const uint64_t number : pending_outputs_) live.push_back(number);
  std::sort(live.begin(), live.end());

  std::vector<std::string> children;
  if (!fs().ListDir(dbname_, &children).ok()) return;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) continue;
    bool keep = true;
    switch (type) {
      case FileType::kLogFile:
        keep = number >= versions_->LogNumber() || number == logfile_number_;
        break;
      case FileType::kTableFile:
        keep = std::binary_search(live.begin(), live.end(), number);
        break;
      case FileType::kManifestFile:
        keep = number >= versions_->ManifestFileNumber();
        break;
      case FileType::kBlobFile:
        // The value log owns segment lifetime (guard-gated deletion in
        // SweepDeletable); this sweep only reaps files it already
        // unregistered but could not remove, e.g. after an EIO.
        keep = vlog_ == nullptr || vlog_->Contains(number);
        break;
      default:
        break;
    }
    if (!keep) {
      if (type == FileType::kTableFile) table_cache_->Evict(number);
      // Best effort: an orphan that survives an EIO here is retried on the
      // next sweep (and is invisible to reads — it is in no Version).
      fs().RemoveFile(dbname_ + "/" + child).IgnoreError();
    }
  }
}

// --- reads ---------------------------------------------------------------------

SequenceNumber DBImpl::SmallestSnapshot() const {
  SequenceNumber smallest = versions_->LastSequence();
  for (const auto* snap : snapshots_) {
    smallest = std::min(smallest, snap->sequence);
  }
  return smallest;
}

void DBImpl::PinReadView(const ReadOptions& options, ReadView* view) {
  view->sequence = options.snapshot_sequence != 0 ? options.snapshot_sequence
                                                  : versions_->LastSequence();
  view->mem = mem_;
  view->mem->Ref();
  view->imms.reserve(imm_queue_.size());
  for (auto it = imm_queue_.rbegin(); it != imm_queue_.rend(); ++it) {
    (*it)->Ref();
    view->imms.push_back(*it);
  }
  view->current = versions_->current();
}

Status DBImpl::Lookup(const ReadOptions& options, const ReadView& view,
                      std::span<Version::GetRequest*> reqs) const {
  bool pending = false;
  for (Version::GetRequest* req : reqs) {
    req->done = view.mem->Get(*req->lkey, req->value, req->status, &req->is_pointer);
    for (auto it = view.imms.begin(); !req->done && it != view.imms.end(); ++it) {
      req->done = (*it)->Get(*req->lkey, req->value, req->status, &req->is_pointer);
    }
    pending = pending || !req->done;
  }

  // The rest walk the levels in user-key order. A key the walk does not
  // resolve is a miss, or carries the walk's failure.
  Status walk;
  if (pending) {
    const Comparator* ucmp = internal_comparator_.user_comparator();
    std::sort(reqs.begin(), reqs.end(),
              [ucmp](const Version::GetRequest* a, const Version::GetRequest* b) {
                return ucmp->Compare(a->lkey->user_key(), b->lkey->user_key()) < 0;
              });
    walk = view.current->MultiGet(options, table_cache_.get(), reqs);
    for (Version::GetRequest* req : reqs) {
      if (!req->done) {
        *req->status = walk.ok() ? Status::NotFound("key not present") : walk;
      }
    }
  }

  // Resolve separated values (outside mu_; the pinned Version guards the
  // segments against GC deletion) through the value log's run read.
  InlineVector<ValueLog::Request, 4> resolves;
  for (Version::GetRequest* req : reqs) {
    if (!req->is_pointer || !req->status->ok()) continue;
    if (vlog_ == nullptr) {
      *req->status = Status::Corruption("unresolvable value-log pointer");
      continue;
    }
    resolves.push_back(
        ValueLog::Request{*req->value, req->lkey->user_key(), req->value, req->status});
  }
  if (!resolves.empty()) vlog_->ReadValues({resolves.data(), resolves.size()});
  return walk;
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  const uint64_t op_start_micros = clock_->NowMicros();
  ReadView view;
  {
    MutexLock lock(&mu_);
    PinReadView(options, &view);
    ++stats_.gets;
  }

  const LookupKey lkey(key, view.sequence);
  Status s;
  Version::GetRequest req{.lkey = &lkey, .value = value, .status = &s};
  Version::GetRequest* reqs[] = {&req};
  // A lone request carries the walk's failure itself.
  Lookup(options, view, reqs).IgnoreError();

  if (s.ok()) {
    MutexLock lock(&mu_);
    ++stats_.get_hits;
  }
  get_latency_rec_.Record(clock_->NowMicros() - op_start_micros);
  return s;
}

Status DBImpl::MultiGet(const ReadOptions& options, std::span<const Slice> keys,
                        std::vector<std::string>* values,
                        std::vector<Status>* statuses) {
  const uint64_t op_start_micros = clock_->NowMicros();
  const size_t n = keys.size();
  values->assign(n, {});
  statuses->assign(n, Status());
  if (n == 0) return Status::OK();

  ReadView view;
  {
    MutexLock lock(&mu_);
    PinReadView(options, &view);
    ++stats_.multiget_batches;
    stats_.multiget_keys += n;
  }

  // LookupKey is non-copyable; a deque keeps them stable while requests
  // point at them.
  std::deque<LookupKey> lkeys;
  std::vector<Version::GetRequest> reqs(n);
  std::vector<Version::GetRequest*> ptrs(n);
  for (size_t i = 0; i < n; ++i) {
    reqs[i].lkey = &lkeys.emplace_back(keys[i], view.sequence);
    reqs[i].value = &(*values)[i];
    reqs[i].status = &(*statuses)[i];
    ptrs[i] = &reqs[i];
  }
  const Status batch_status = Lookup(options, view, ptrs);

  {
    MutexLock lock(&mu_);
    for (const Status& s : *statuses) {
      if (s.ok()) ++stats_.get_hits;
    }
  }
  multiget_latency_rec_.Record(clock_->NowMicros() - op_start_micros);
  return batch_status;
}

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options,
                                      SequenceNumber* sequence) {
  auto view = std::make_shared<ReadView>();
  {
    MutexLock lock(&mu_);
    PinReadView(options, view.get());
  }
  *sequence = view->sequence;

  std::vector<Iterator*> iters;
  iters.push_back(view->mem->NewIterator());
  for (MemTable* imm : view->imms) iters.push_back(imm->NewIterator());
  view->current->AddIterators(options, table_cache_.get(), &iters);
  Iterator* merged = NewMergingIterator(&internal_comparator_, iters.data(),
                                        static_cast<int>(iters.size()));
  merged->RegisterCleanup([view = std::move(view)]() mutable { view.reset(); });
  return merged;
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  SequenceNumber sequence;
  Iterator* internal_iter = NewInternalIterator(options, &sequence);
  return NewDBIterator(internal_comparator_.user_comparator(), internal_iter,
                       sequence, vlog_.get());
}

const Snapshot* DBImpl::GetSnapshot() {
  MutexLock lock(&mu_);
  auto* snap = new SnapshotImpl(versions_->LastSequence());
  snapshots_.push_back(snap);
  return snap;
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  MutexLock lock(&mu_);
  const auto* impl = static_cast<const SnapshotImpl*>(snapshot);
  snapshots_.remove(impl);
  delete impl;
}

DbStats DBImpl::GetStats() const {
  MutexLock lock(&mu_);
  DbStats stats = stats_;
  stats.read_only_mode = bg_error_.ok() ? 0 : 1;
  stats.flush_queue_depth = imm_queue_.size();
  stats.compaction_queue_depth = compaction_scheduled_ ? 1 : 0;
  stats.shards = 1;
  // A ShardedDB's shards share one Background, so each shard reports its
  // store-wide values (kSharedTotal).
  stats.concurrent_compactions = background_->compactions_running.load();
  stats.peak_concurrent_compactions = background_->peak_compactions_running.load();
  if (const RateLimiter* limiter = background_->rate_limiter.get(); limiter != nullptr) {
    stats.rate_limited_bytes_flush = limiter->bytes_through(RateLimiter::Priority::kHigh);
    stats.rate_limited_bytes_compaction =
        limiter->bytes_through(RateLimiter::Priority::kLow);
    stats.rate_limiter_wait_micros = limiter->wait_micros();
  }
  write_latency_rec_.MergeTo(&stats.write_latency);
  get_latency_rec_.MergeTo(&stats.get_latency);
  multiget_latency_rec_.MergeTo(&stats.multiget_latency);
  const auto relaxed = std::memory_order_relaxed;
  stats.bloom_checked = read_counters_.bloom_checked.load(relaxed);
  stats.bloom_useful = read_counters_.bloom_useful.load(relaxed);
  stats.block_cache_hits = read_counters_.block_cache_hits.load(relaxed);
  stats.block_cache_misses = read_counters_.block_cache_misses.load(relaxed);
  stats.readahead_bytes = read_counters_.readahead_bytes.load(relaxed);
  stats.multiget_coalesced_reads = read_counters_.coalesced_reads.load(relaxed);
  if (vlog_ != nullptr) vlog_->FillStats(&stats);
  stats.memtable_bytes = MemTableBytes();
  if (block_cache_ != nullptr) {
    stats.tenant_cache_bytes = options_.tenant_id != 0
                                   ? block_cache_->OwnerCharge(options_.tenant_id)
                                   : block_cache_->TotalCharge();
  }
  if (options_.write_memory_pool != nullptr) {
    stats.write_pool_usage_bytes = options_.write_memory_pool->TotalUsage();
    stats.write_pool_budget_bytes = options_.write_memory_pool->Budget();
  }
  return stats;
}

}  // namespace lsmio::lsm
