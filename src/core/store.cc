#include "core/store.h"

#include "common/synchronization.h"
#include "core/memory_arbiter.h"

namespace lsmio {

namespace {

lsm::Options ToEngineOptions(const LsmioOptions& options) {
  lsm::Options engine;
  engine.vfs = options.vfs;
  engine.disable_wal = options.disable_wal;
  engine.compression = options.disable_compression
                           ? lsm::CompressionType::kNone
                           : lsm::CompressionType::kLzLite;
  engine.disable_cache = options.disable_cache;
  engine.disable_compaction = options.disable_compaction;
  engine.sync_writes = options.sync_writes;
  engine.use_mmap = options.use_mmap;
  engine.write_buffer_size = options.write_buffer_size;
  engine.block_size = options.block_size;
  engine.read_only = options.read_only;
  // Flush and compaction schedule independently on this pool; at most one
  // flush runs at a time, so §3.1.2's single flushing thread is preserved
  // for any value.
  engine.background_threads = options.background_threads;
  engine.max_write_buffer_number = options.max_write_buffer_number;
  engine.num_shards = options.num_shards;
  return engine;
}

class LsmStore final : public Store {
 public:
  LsmStore(LsmioOptions options, std::unique_ptr<lsm::DB> db,
           uint64_t tenant_id)
      : options_(std::move(options)),
        db_(std::move(db)),
        tenant_id_(tenant_id) {}

  ~LsmStore() override {
    // Close the engine first: ~DBImpl detaches from the arbiter's write
    // pool and releases its pinned cache handles, so the purge below can
    // reclaim the tenant's full cache charge.
    db_.reset();
    if (tenant_id_ != 0 && options_.memory_arbiter != nullptr) {
      options_.memory_arbiter->UnregisterTenant(tenant_id_);
    }
  }

  Status StartBatch() override {
    MutexLock lock(&mu_);
    if (!options_.use_write_batch) return Status::OK();
    if (batching_) return Status::Busy("batch already started");
    batching_ = true;
    batch_.Clear();
    return Status::OK();
  }

  Status StopBatch() override {
    MutexLock lock(&mu_);
    if (!options_.use_write_batch) return Status::OK();
    if (!batching_) return Status::Busy("no batch in progress");
    batching_ = false;
    if (batch_.Count() == 0) return Status::OK();
    lsm::WriteOptions write_options;
    write_options.sync = options_.sync_writes;
    Status s = db_->Write(write_options, &batch_);
    batch_.Clear();
    return s;
  }

  Status Get(const lsm::ReadOptions& options, const Slice& key,
             std::string* value) override {
    // Reads see batched-but-unapplied writes only after StopBatch — the
    // LevelDB-mode contract the paper describes (aggregation is opaque).
    return db_->Get(options, key, value);
  }

  Status GetBatch(const lsm::ReadOptions& options, std::span<const Slice> keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses) override {
    return db_->MultiGet(options, keys, values, statuses);
  }

  Status Put(const Slice& key, const Slice& value) override {
    {
      MutexLock lock(&mu_);
      if (batching_) {
        batch_.Put(key, value);
        return Status::OK();
      }
    }
    lsm::WriteOptions write_options;
    write_options.sync = options_.sync_writes;
    return db_->Put(write_options, key, value);
  }

  Status Append(const Slice& key, const Slice& value) override {
    // Read-modify-write; the engine keeps this cheap because the hot tail
    // lives in the memtable. During an open batch the engine cannot see the
    // batched-but-unapplied ops, so the batch must be consulted first or an
    // Append after a batched Put would extend a stale value.
    {
      MutexLock lock(&mu_);
      if (batching_) {
        bool found = false;
        std::string existing;  // stays empty when deleted in the batch
        lsm::WriteBatch::Op op;
        lsm::WriteBatch::Reader reader(batch_);
        while (reader.Next(&op)) {
          if (op.key == key) {
            found = true;
            existing.assign(op.value.data(), op.value.size());
          }
        }
        LSMIO_RETURN_IF_ERROR(reader.status());
        if (!found) {
          Status s = db_->Get({}, key, &existing);
          if (!s.ok() && !s.IsNotFound()) return s;
        }
        existing.append(value.data(), value.size());
        batch_.Put(key, existing);
        return Status::OK();
      }
    }
    std::string existing;
    Status s = db_->Get({}, key, &existing);
    if (!s.ok() && !s.IsNotFound()) return s;
    existing.append(value.data(), value.size());
    return Put(key, existing);
  }

  Status Del(const Slice& key) override {
    {
      MutexLock lock(&mu_);
      if (batching_) {
        batch_.Delete(key);
        return Status::OK();
      }
    }
    lsm::WriteOptions write_options;
    write_options.sync = options_.sync_writes;
    return db_->Delete(write_options, key);
  }

  Status WriteBarrier(BarrierMode mode) override {
    // Flush any open batch first, then the memtable.
    {
      MutexLock lock(&mu_);
      if (batching_ && batch_.Count() > 0) {
        lsm::WriteOptions write_options;
        write_options.sync = options_.sync_writes;
        LSMIO_RETURN_IF_ERROR(db_->Write(write_options, &batch_));
        batch_.Clear();
      }
    }
    return db_->FlushMemTable(/*wait=*/mode == BarrierMode::kSync);
  }

  lsm::DbStats EngineStats() const override { return db_->GetStats(); }

  Status Health() const override { return db_->HealthStatus(); }

  uint64_t MemoryTenantId() const override { return tenant_id_; }

  lsm::Iterator* NewIterator(const lsm::ReadOptions& options) override {
    return db_->NewIterator(options);
  }

 private:
  LsmioOptions options_;         // unguarded: immutable after construction
  std::unique_ptr<lsm::DB> db_;  // unguarded: set once; DB is internally synchronized
  const uint64_t tenant_id_;     // unguarded: immutable after construction
  /// Guards the batching window. Lock order (DESIGN.md §9): mu_ is above
  /// DBImpl::mu_ — StopBatch/WriteBarrier call db_->Write while holding it.
  Mutex mu_;
  bool batching_ GUARDED_BY(mu_) = false;
  lsm::WriteBatch batch_ GUARDED_BY(mu_);
};

}  // namespace

Status OpenLsmStore(const LsmioOptions& options, const std::string& path,
                    std::unique_ptr<Store>* store) {
  lsm::Options engine = ToEngineOptions(options);
  uint64_t tenant_id = 0;
  if (options.memory_arbiter != nullptr) {
    tenant_id = options.memory_arbiter->RegisterTenant(path);
    engine.tenant_id = tenant_id;
    // Write-memory arbitration only matters for writable stores; read-only
    // opens still share the cache so restore reads are charged correctly.
    if (!options.read_only) {
      engine.write_memory_pool = options.memory_arbiter->write_pool();
    }
    if (!options.disable_cache) {
      engine.block_cache = options.memory_arbiter->shared_cache();
    }
  }
  std::unique_ptr<lsm::DB> db;
  Status s = lsm::DB::Open(engine, path, &db);
  if (!s.ok()) {
    if (tenant_id != 0) options.memory_arbiter->UnregisterTenant(tenant_id);
    return s;
  }
  *store = std::make_unique<LsmStore>(options, std::move(db), tenant_id);
  return Status::OK();
}

}  // namespace lsmio
