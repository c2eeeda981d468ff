// ShardedDB: N parallel sub-LSMs behind the DB interface. The keyspace is
// hash-partitioned (Hash64 with a fixed seed, mod N) across N DBImpl
// instances living in shard-NNN subdirectories of the store path, each
// with its own memtable, WAL, manifest and version state:
//
//   name/SHARDS            marker: format version + shard count
//   name/shard-000/        full DBImpl directory (CURRENT, MANIFEST-*, ...)
//   name/shard-001/
//   ...
//
// Writes split per shard and group-commit independently (N concurrent WAL
// fsyncs); MultiGet partitions the batch and scatters results back;
// iterators merge the per-shard iterators with the user comparator (the
// shards hold disjoint keys, so no dedup is needed). Flushes and
// compactions from different shards run concurrently on the store's one
// Background: its compaction pool's size caps concurrent compactions, and
// each shard runs at most one, so a hot shard can never starve the rest.
//
// The shard count is fixed at creation (recorded in SHARDS); reopening
// with a different num_shards fails with InvalidArgument, in both
// directions — including opening a pre-sharding store with num_shards > 1.
// This file alone knows the layout: DB::Open and DB::Destroy (defined in
// sharded_db.cc) read and write it for both sharded and unsharded stores.
//
// Caveats vs a single DBImpl: a WriteBatch spanning shards is atomic per
// shard but not across shards, and raw ReadOptions::snapshot_sequence
// values are per-shard and therefore rejected on sharded reads (use
// GetSnapshot, which pins every shard).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/db_impl.h"

namespace lsmio::lsm {

/// Path of the shard-layout marker file for the store at `dbname`.
std::string ShardsMarkerFileName(const std::string& dbname);

class ShardedDB final : public DB {
 public:
  ~ShardedDB() override;

  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
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
  void GetShardStats(std::vector<DbStats>* out) const override;

 private:
  friend class DB;  // DB::Open creates the shards
  struct ShardedSnapshot;

  explicit ShardedDB(const Options& options);

  [[nodiscard]] size_t ShardOf(const Slice& key) const;

  Options options_;

  // Destruction order (reverse of declaration): shards_ first — each
  // shard's destructor drains its background work, which needs the pools
  // alive — then the pools, which join their threads.
  Background background_;
  std::vector<std::unique_ptr<DBImpl>> shards_;
};

}  // namespace lsmio::lsm
