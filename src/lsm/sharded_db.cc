#include "lsm/sharded_db.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "lsm/comparator.h"
#include "lsm/merger.h"
#include "vfs/posix_vfs.h"

namespace lsmio::lsm {

namespace {

// Routing must be identical across every open of a store, so the hash
// seed is a fixed constant (and part of the on-disk contract, like the
// comparator).
constexpr uint64_t kShardHashSeed = 0x73686172644c534dULL;  // "shardLSM"

constexpr char kMarkerMagic[] = "lsmio-shards-v1";

Status SnapshotSequenceUnsupported() {
  return Status::InvalidArgument(
      "ReadOptions::snapshot_sequence is a per-shard sequence and cannot be "
      "used on a sharded store; use GetSnapshot instead");
}

}  // namespace

std::string ShardsMarkerFileName(const std::string& dbname) {
  return dbname + "/SHARDS";
}

std::string ShardDirName(const std::string& dbname, int shard) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "shard-%03d", shard);
  return dbname + "/" + buf;
}

Status ReadShardsMarker(vfs::Vfs& fs, const std::string& dbname,
                        int* num_shards) {
  std::string contents;
  const Status s = vfs::ReadFileToString(fs, ShardsMarkerFileName(dbname),
                                         &contents);
  if (s.IsNotFound()) return s;
  LSMIO_RETURN_IF_ERROR(s);
  char magic[32] = {};
  int n = 0;
  if (std::sscanf(contents.c_str(), "%31s %d", magic, &n) != 2 ||
      std::string(magic) != kMarkerMagic || n < 1) {
    return Status::Corruption("unparseable SHARDS marker: " + contents);
  }
  *num_shards = n;
  return Status::OK();
}

struct ShardedDB::ShardedSnapshot final : Snapshot {
  std::vector<const Snapshot*> per_shard;  // index = shard
};

ShardedDB::ShardedDB(const Options& options, const std::string& name)
    : options_(options),
      dbname_(name),
      user_comparator_(options.comparator != nullptr ? options.comparator
                                                     : BytewiseComparator()),
      background_(options) {}

// Shards drain their background work in their destructors; background_
// outlives them (see member order).
ShardedDB::~ShardedDB() = default;

vfs::Vfs& ShardedDB::fs() const {
  return options_.vfs != nullptr ? *options_.vfs : vfs::PosixVfs();
}

size_t ShardedDB::ShardOf(const Slice& key) const {
  return static_cast<size_t>(Hash64(key.data(), key.size(), kShardHashSeed) %
                             shards_.size());
}

Status ShardedDB::Open(const Options& options, const std::string& name,
                       std::unique_ptr<DB>* dbptr) {
  const int n = options.num_shards;
  if (n < 2) {
    return Status::InvalidArgument("ShardedDB requires num_shards > 1");
  }
  vfs::Vfs& fs = options.vfs != nullptr ? *options.vfs : vfs::PosixVfs();

  int on_disk = 0;
  const Status marker = ReadShardsMarker(fs, name, &on_disk);
  if (marker.IsNotFound()) {
    if (options.read_only) {
      return Status::NotFound(name + " does not exist (read_only open)");
    }
    if (!options.create_if_missing) {
      return Status::InvalidArgument(
          name + " does not exist (create_if_missing=false)");
    }
    LSMIO_RETURN_IF_ERROR(fs.CreateDir(name));
    // WriteStringToFile syncs before close, so the marker (the commit
    // point of the sharded layout) survives a crash right after creation.
    LSMIO_RETURN_IF_ERROR(vfs::WriteStringToFile(
        fs, ShardsMarkerFileName(name),
        std::string(kMarkerMagic) + " " + std::to_string(n) + "\n"));
  } else {
    LSMIO_RETURN_IF_ERROR(marker);
    if (on_disk != n) {
      return Status::InvalidArgument(
          name + " was created with num_shards=" + std::to_string(on_disk) +
          "; reopening with num_shards=" + std::to_string(n) +
          " is not supported");
    }
    if (options.error_if_exists) {
      return Status::InvalidArgument(name + " exists (error_if_exists=true)");
    }
  }

  std::unique_ptr<ShardedDB> db(new ShardedDB(options, name));
  for (int shard = 0; shard < n; ++shard) {
    Options shard_options = options;
    shard_options.num_shards = 1;
    // The marker above already arbitrated existence for the whole store.
    shard_options.error_if_exists = false;
    shard_options.create_if_missing = !options.read_only;
    auto impl = std::make_unique<DBImpl>(shard_options, ShardDirName(name, shard),
                                         &db->background_);
    LSMIO_RETURN_IF_ERROR(impl->Initialize());
    db->shards_.push_back(std::move(impl));
  }
  *dbptr = std::move(db);
  return Status::OK();
}

Status ShardedDB::DestroyShards(const Options& options, const std::string& name,
                                int num_shards) {
  vfs::Vfs& fs = options.vfs != nullptr ? *options.vfs : vfs::PosixVfs();
  for (int shard = 0; shard < num_shards; ++shard) {
    // Shard directories carry no SHARDS marker, so this takes the plain
    // single-LSM removal path.
    LSMIO_RETURN_IF_ERROR(DB::Destroy(options, ShardDirName(name, shard)));
  }
  // A marker that survives its shards would make the next Open look for
  // stores that no longer exist — surface the failure (NotFound is fine:
  // Destroy is idempotent).
  Status s = fs.RemoveFile(ShardsMarkerFileName(name));
  if (!s.ok() && !s.IsNotFound()) return s;
  return Status::OK();
}

// --- writes -------------------------------------------------------------------

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  return shards_[ShardOf(key)]->Put(options, key, value);
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  return shards_[ShardOf(key)]->Delete(options, key);
}

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* updates) {
  if (updates == nullptr) {
    return Status::InvalidArgument("null batch");
  }

  // Pass 1 (no copies): which shards does the batch touch? Single-shard
  // batches — the common case for checkpoint streams, and all Put/Delete
  // calls — forward the caller's batch untouched, preserving the exact
  // single-LSM code path including its sequence stamping.
  struct Router final : WriteBatch::Handler {
    const ShardedDB* db = nullptr;
    std::vector<uint8_t> touched;
    size_t distinct = 0;
    size_t only = 0;
    void Note(const Slice& key) {
      const size_t shard = db->ShardOf(key);
      if (touched[shard] == 0) {
        touched[shard] = 1;
        ++distinct;
        only = shard;
      }
    }
    void Put(const Slice& key, const Slice&) override { Note(key); }
    void Delete(const Slice& key) override { Note(key); }
  } router;
  router.db = this;
  router.touched.assign(shards_.size(), 0);
  LSMIO_RETURN_IF_ERROR(updates->Iterate(&router));
  if (router.distinct == 0) return Status::OK();
  if (router.distinct == 1) return shards_[router.only]->Write(options, updates);

  // Pass 2: split into per-shard sub-batches and apply each to its shard.
  // Atomicity holds within each shard (one WAL record per sub-batch), not
  // across shards — see the class comment.
  struct Splitter final : WriteBatch::Handler {
    const ShardedDB* db = nullptr;
    std::vector<WriteBatch>* sub = nullptr;
    void Put(const Slice& key, const Slice& value) override {
      (*sub)[db->ShardOf(key)].Put(key, value);
    }
    void Delete(const Slice& key) override {
      (*sub)[db->ShardOf(key)].Delete(key);
    }
  } splitter;
  std::vector<WriteBatch> sub(shards_.size());
  splitter.db = this;
  splitter.sub = &sub;
  LSMIO_RETURN_IF_ERROR(updates->Iterate(&splitter));

  Status first_error;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    if (sub[shard].Count() == 0) continue;
    const Status s = shards_[shard]->Write(options, &sub[shard]);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

// --- reads --------------------------------------------------------------------

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      std::string* value) {
  if (options.snapshot_sequence != 0) return SnapshotSequenceUnsupported();
  return shards_[ShardOf(key)]->Get(options, key, value);
}

Status ShardedDB::MultiGet(const ReadOptions& options,
                           std::span<const Slice> keys,
                           std::vector<std::string>* values,
                           std::vector<Status>* statuses) {
  const size_t n = keys.size();
  values->assign(n, {});
  statuses->assign(n, Status());
  if (n == 0) return Status::OK();
  if (options.snapshot_sequence != 0) return SnapshotSequenceUnsupported();

  // Partition the batch by shard, run each shard's sub-batch through its
  // coalescing MultiGet, and scatter the results back in caller order.
  std::vector<std::vector<size_t>> indices(shards_.size());
  for (size_t i = 0; i < n; ++i) indices[ShardOf(keys[i])].push_back(i);

  Status batch_status;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const std::vector<size_t>& idx = indices[shard];
    if (idx.empty()) continue;
    std::vector<Slice> sub_keys;
    sub_keys.reserve(idx.size());
    for (const size_t i : idx) sub_keys.push_back(keys[i]);
    std::vector<std::string> sub_values;
    std::vector<Status> sub_statuses;
    const Status s = shards_[shard]->MultiGet(options, sub_keys, &sub_values,
                                              &sub_statuses);
    for (size_t j = 0; j < idx.size(); ++j) {
      (*values)[idx[j]] = std::move(sub_values[j]);
      (*statuses)[idx[j]] = std::move(sub_statuses[j]);
    }
    if (!s.ok() && batch_status.ok()) batch_status = s;
  }
  return batch_status;
}

Iterator* ShardedDB::NewIterator(const ReadOptions& options) {
  if (options.snapshot_sequence != 0) {
    return NewErrorIterator(SnapshotSequenceUnsupported());
  }
  // Each shard iterator already yields user keys at that shard's latest
  // sequence; the shards are key-disjoint, so a user-comparator merge is
  // a total order with no duplicates.
  std::vector<Iterator*> children;
  children.reserve(shards_.size());
  for (const auto& shard : shards_) {
    children.push_back(shard->NewIterator(options));
  }
  return NewMergingIterator(user_comparator_, children.data(),
                            static_cast<int>(children.size()));
}

const Snapshot* ShardedDB::GetSnapshot() {
  auto* snap = new ShardedSnapshot();
  snap->per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snap->per_shard.push_back(shard->GetSnapshot());
  }
  return snap;
}

void ShardedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  const auto* snap = static_cast<const ShardedSnapshot*>(snapshot);
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    shards_[shard]->ReleaseSnapshot(snap->per_shard[shard]);
  }
  delete snap;
}

// --- maintenance --------------------------------------------------------------

Status ShardedDB::FlushMemTable(bool wait) {
  // Two passes so the shards flush concurrently: trigger every shard's
  // memtable switch first, then (optionally) wait on each.
  Status first_error;
  for (const auto& shard : shards_) {
    const Status s = shard->FlushMemTable(false);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  if (wait) {
    for (const auto& shard : shards_) {
      const Status s = shard->FlushMemTable(true);
      if (!s.ok() && first_error.ok()) first_error = s;
    }
  }
  return first_error;
}

Status ShardedDB::CompactRange(const Slice* begin, const Slice* end) {
  // One thread per shard, NOT a background pool: each shard's
  // CompactRange blocks until the compaction pool finishes its compaction,
  // so running the waiters on a pool could deadlock. Shards whose files
  // don't overlap [begin, end] return immediately; the rest compact
  // concurrently, bounded by the compaction pool's size.
  std::vector<Status> results(shards_.size());
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    threads.emplace_back([this, shard, begin, end, &results] {
      results[shard] = shards_[shard]->CompactRange(begin, end);
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedDB::HealthStatus() const {
  for (const auto& shard : shards_) {
    LSMIO_RETURN_IF_ERROR(shard->HealthStatus());
  }
  return Status::OK();
}

DbStats ShardedDB::GetStats() const {
  DbStats total;
  for (const auto& shard : shards_) {
    const DbStats s = shard->GetStats();
    const uint64_t tenant_cache_max = std::max(total.tenant_cache_bytes, s.tenant_cache_bytes);
    total.Merge(s);
    // With a shared cache every shard reports the tenant's store-wide
    // charge (max is exact); private per-shard caches are disjoint (sum).
    if (options_.block_cache != nullptr) total.tenant_cache_bytes = tenant_cache_max;
  }
  return total;
}

void ShardedDB::GetShardStats(std::vector<DbStats>* out) const {
  out->clear();
  out->reserve(shards_.size());
  for (const auto& shard : shards_) {
    out->push_back(shard->GetStats());
  }
}

uint64_t ShardedDB::ApproximateMemoryUsage() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ApproximateMemoryUsage();
  }
  return total;
}

}  // namespace lsmio::lsm
