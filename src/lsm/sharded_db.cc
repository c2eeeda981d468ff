#include "lsm/sharded_db.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "lsm/comparator.h"
#include "lsm/merger.h"
#include "vfs/posix_vfs.h"

namespace lsmio::lsm {

namespace {

// Routing must be identical across every open of a store, so the hash
// seed is a fixed constant (and part of the on-disk contract, like the
// comparator).
constexpr uint64_t kShardHashSeed = 0x73686172644c534dULL;  // "shardLSM"

constexpr std::string_view kMarkerMagic = "lsmio-shards-v1 ";

Status SnapshotSequenceUnsupported() {
  return Status::InvalidArgument(
      "ReadOptions::snapshot_sequence is a per-shard sequence and cannot be "
      "used on a sharded store; use GetSnapshot instead");
}

vfs::Vfs& FsOf(const Options& options) {
  return options.vfs != nullptr ? *options.vfs : vfs::PosixVfs();
}

/// Reads the SHARDS marker: exactly "lsmio-shards-v1 N\n" with 2 <= N <=
/// INT_MAX in decimal. NotFound when the store is not sharded (or does not
/// exist); Corruption for anything else.
Status ReadShardsMarker(vfs::Vfs& fs, const std::string& dbname, int* num_shards) {
  std::string contents;
  LSMIO_RETURN_IF_ERROR(vfs::ReadFileToString(fs, ShardsMarkerFileName(dbname), &contents));
  const std::string_view text(contents);
  const char* const digits = text.data() + std::min(kMarkerMagic.size(), text.size());
  const char* const end = text.data() + text.size();
  int n = 0;
  const auto [last, error] = std::from_chars(digits, end, n);
  if (!text.starts_with(kMarkerMagic) || error != std::errc() || n < 2 ||
      std::string_view(last, static_cast<size_t>(end - last)) != "\n") {
    return Status::Corruption("unparseable SHARDS marker in " + dbname);
  }
  *num_shards = n;
  return Status::OK();
}

/// Directory of shard `shard` of the store at `dbname`.
std::string ShardDirName(const std::string& dbname, int shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%03d", shard);
  return dbname + "/" + buf;
}

/// True for a shard directory name, "shard-" followed by digits.
bool IsShardDirName(const std::string& name) {
  constexpr std::string_view kPrefix = "shard-";
  return name.size() > kPrefix.size() && name.starts_with(kPrefix) &&
         std::all_of(name.begin() + kPrefix.size(), name.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

std::string ShardsMarkerFileName(const std::string& dbname) {
  return dbname + "/SHARDS";
}

// --- the store layout -----------------------------------------------------------

Status DB::Open(const Options& options, const std::string& name,
                std::unique_ptr<DB>* dbptr) {
  dbptr->reset();
  vfs::Vfs& fs = FsOf(options);
  const int requested = std::max(1, options.num_shards);

  // The SHARDS marker is the layout arbiter: a sharded store must be
  // reopened with its recorded shard count, an unsharded store (plain
  // CURRENT at the root, possibly predating sharding) only with
  // num_shards=1. Mismatches fail instead of silently mis-routing keys.
  int on_disk = 1;
  const Status marker = ReadShardsMarker(fs, name, &on_disk);
  if (!marker.ok() && !marker.IsNotFound()) return marker;
  const bool exists = marker.ok() || fs.FileExists(CurrentFileName(name));
  if (!exists) {
    if (options.read_only) return Status::NotFound(name + " does not exist (read_only open)");
    if (!options.create_if_missing) {
      return Status::InvalidArgument(name + " does not exist (create_if_missing=false)");
    }
  } else if (options.error_if_exists) {
    return Status::InvalidArgument(name + " exists (error_if_exists=true)");
  } else if (on_disk != requested) {
    return Status::InvalidArgument(name + " was created with num_shards=" +
                                   std::to_string(on_disk) + "; reopening with num_shards=" +
                                   std::to_string(requested) + " is not supported");
  }

  if (requested == 1) {
    auto impl = std::make_unique<DBImpl>(options, name);
    LSMIO_RETURN_IF_ERROR(impl->Initialize(/*create=*/!exists));
    *dbptr = std::move(impl);
    return Status::OK();
  }
  if (!exists) {
    LSMIO_RETURN_IF_ERROR(fs.CreateDir(name));
    // WriteStringToFile syncs before close, so the marker (the commit
    // point of the sharded layout) survives a crash right after creation.
    LSMIO_RETURN_IF_ERROR(vfs::WriteStringToFile(
        fs, ShardsMarkerFileName(name),
        std::string(kMarkerMagic) + std::to_string(requested) + "\n"));
  }
  std::unique_ptr<ShardedDB> db(new ShardedDB(options));
  for (int shard = 0; shard < requested; ++shard) {
    Options shard_options = options;
    shard_options.num_shards = 1;
    const std::string dir = ShardDirName(name, shard);
    // A shard missing from a writable store is created afresh.
    const bool create = !options.read_only && !fs.FileExists(CurrentFileName(dir));
    auto impl = std::make_unique<DBImpl>(shard_options, dir, &db->background_);
    LSMIO_RETURN_IF_ERROR(impl->Initialize(create));
    db->shards_.push_back(std::move(impl));
  }
  *dbptr = std::move(db);
  return Status::OK();
}

Status DB::Destroy(const Options& options, const std::string& name) {
  vfs::Vfs& fs = FsOf(options);
  std::vector<std::string> children;
  if (!fs.ListDir(name, &children).ok()) return Status::OK();  // nothing to destroy
  // Keep removing past individual failures, but report the first one:
  // a Destroy that leaves files behind and says OK would let a later
  // Open resurrect a half-deleted store.
  Status result;
  const auto record = [&result](const Status& s) {
    if (!s.ok() && !s.IsNotFound() && result.ok()) result = s;
  };
  bool sharded = false;
  for (const std::string& child : children) {
    const std::string path = name + "/" + child;
    uint64_t number;
    FileType type;
    if (IsShardDirName(child)) {
      // The shards the listing finds, whatever the marker claims.
      record(Destroy(options, path));
    } else if (path == ShardsMarkerFileName(name)) {
      sharded = true;
    } else if (ParseFileName(child, &number, &type) || child == "CURRENT.tmp") {
      record(fs.RemoveFile(path));
    }
  }
  // The marker goes last, and only once every shard is gone: a marker
  // that survives its shards keeps the next Destroy looking for them.
  if (sharded && result.ok()) record(fs.RemoveFile(ShardsMarkerFileName(name)));
  return result;
}

namespace {

template <StatKind K>
void MergeStat(StatValue<K>& total, const StatValue<K>& shard) {
  if constexpr (K == StatKind::kHistogram) {
    total.Merge(shard);
  } else if constexpr (K == StatKind::kCounter || K == StatKind::kGaugeSum) {
    total += shard;
  } else {
    total = std::max(total, shard);
  }
}

}  // namespace

void DbStats::Merge(const DbStats& shard) {
#define LSMIO_DB_STAT_MERGE(name, kind, help) MergeStat<StatKind::kind>(name, shard.name);
  LSMIO_DB_STATS(LSMIO_DB_STAT_MERGE)
#undef LSMIO_DB_STAT_MERGE
}

// --- ShardedDB ------------------------------------------------------------------

struct ShardedDB::ShardedSnapshot final : Snapshot {
  std::vector<const Snapshot*> per_shard;  // index = shard
};

ShardedDB::ShardedDB(const Options& options) : options_(options), background_(options) {}

// Shards drain their background work in their destructors; background_
// outlives them (see member order).
ShardedDB::~ShardedDB() = default;

size_t ShardedDB::ShardOf(const Slice& key) const {
  return static_cast<size_t>(Hash64(key.data(), key.size(), kShardHashSeed) %
                             shards_.size());
}

// --- writes -------------------------------------------------------------------

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* updates) {
  if (updates == nullptr) {
    return Status::InvalidArgument("null batch");
  }

  // Pass 1 (no copies, no allocation): does the batch touch one shard?
  // Single-shard batches — the common case for checkpoint streams, and
  // every Put and Delete — forward the caller's batch untouched, preserving
  // the exact single-LSM code path including its sequence stamping.
  constexpr size_t kNone = SIZE_MAX;
  size_t only = kNone;
  bool split = false;
  WriteBatch::Op op;
  WriteBatch::Reader reader(*updates);
  while (!split && reader.Next(&op)) {
    const size_t shard = ShardOf(op.key);
    split = only != kNone && shard != only;
    only = shard;
  }
  LSMIO_RETURN_IF_ERROR(reader.status());
  if (only == kNone) return Status::OK();
  if (!split) return shards_[only]->Write(options, updates);

  // Pass 2: split into per-shard sub-batches and apply each to its shard.
  // Atomicity holds within each shard (one WAL record per sub-batch), not
  // across shards — see the class comment.
  std::vector<WriteBatch> sub(shards_.size());
  WriteBatch::Reader all(*updates);
  while (all.Next(&op)) sub[ShardOf(op.key)].Add(op);
  LSMIO_RETURN_IF_ERROR(all.status());

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
  return NewMergingIterator(BytewiseComparator(), children.data(),
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

}  // namespace lsmio::lsm
