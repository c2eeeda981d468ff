#include "lsm/db.h"

#include <gtest/gtest.h>

#include <map>
#include <atomic>
#include <memory>
#include <thread>

#include "common/random.h"
#include "common/synchronization.h"
#include "common/units.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

class DbTest : public ::testing::Test {
 protected:
  Options BaseOptions() {
    Options options;
    options.vfs = &fs_;
    options.write_buffer_size = 64 * KiB;  // small so flushes happen in tests
    return options;
  }

  void Open(Options options) {
    db_.reset();
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

  void OpenDefault() { Open(BaseOptions()); }

  std::string Get(const std::string& key) {
    std::string value;
    const Status s = db_->Get({}, key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    EXPECT_TRUE(s.ok()) << s.ToString();
    return value;
  }

  vfs::MemVfs fs_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbTest, EmptyDbGetIsNotFound) {
  OpenDefault();
  EXPECT_EQ(Get("anything"), "NOT_FOUND");
}

TEST_F(DbTest, PutGet) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "key", "value").ok());
  EXPECT_EQ(Get("key"), "value");
}

TEST_F(DbTest, OverwriteKeepsLatest) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "k", "v1").ok());
  ASSERT_TRUE(db_->Put({}, "k", "v2").ok());
  EXPECT_EQ(Get("k"), "v2");
}

TEST_F(DbTest, DeleteHidesKey) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  ASSERT_TRUE(db_->Delete({}, "k").ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");
}

TEST_F(DbTest, DeleteOfMissingKeyIsOk) {
  OpenDefault();
  EXPECT_TRUE(db_->Delete({}, "ghost").ok());
}

TEST_F(DbTest, EmptyValueRoundTrips) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "k", "").ok());
  EXPECT_EQ(Get("k"), "");
}

TEST_F(DbTest, GetAcrossMemtableFlush) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "before", "flush").ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  ASSERT_TRUE(db_->Put({}, "after", "flush2").ok());
  EXPECT_EQ(Get("before"), "flush");
  EXPECT_EQ(Get("after"), "flush2");
  EXPECT_GE(db_->GetStats().memtable_flushes, 1u);
}

TEST_F(DbTest, DeleteShadowsFlushedValue) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  ASSERT_TRUE(db_->Delete({}, "k").ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  EXPECT_EQ(Get("k"), "NOT_FOUND");
}

TEST_F(DbTest, AutomaticFlushOnBufferFull) {
  Options options = BaseOptions();
  options.write_buffer_size = 16 * KiB;
  options.disable_compaction = true;
  Open(options);

  const std::string value(1024, 'v');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  EXPECT_GE(db_->GetStats().memtable_flushes, 3u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Get("key" + std::to_string(i)), value) << i;
  }
}

TEST_F(DbTest, WriteBatchIsAtomicallyVisible) {
  OpenDefault();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(db_->Write({}, &batch).ok());
  EXPECT_EQ(Get("a"), "NOT_FOUND");
  EXPECT_EQ(Get("b"), "2");
}

TEST_F(DbTest, IteratorSeesSortedUserKeys) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "cherry", "3").ok());
  ASSERT_TRUE(db_->Put({}, "apple", "1").ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  ASSERT_TRUE(db_->Put({}, "banana", "2").ok());

  std::unique_ptr<Iterator> iter(db_->NewIterator({}));
  std::vector<std::string> keys;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    keys.push_back(iter->key().ToString());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "banana", "cherry"}));
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(DbTest, IteratorHidesDeletionsAndOldVersions) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "a", "old").ok());
  ASSERT_TRUE(db_->Put({}, "b", "keep").ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  ASSERT_TRUE(db_->Put({}, "a", "new").ok());
  ASSERT_TRUE(db_->Delete({}, "b").ok());

  std::unique_ptr<Iterator> iter(db_->NewIterator({}));
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "a");
  EXPECT_EQ(iter->value().ToString(), "new");
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(DbTest, IteratorBackward) {
  OpenDefault();
  for (const char* k : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(db_->Put({}, k, std::string("v") + k).ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator({}));
  std::vector<std::string> keys;
  for (iter->SeekToLast(); iter->Valid(); iter->Prev()) {
    keys.push_back(iter->key().ToString());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"d", "c", "b", "a"}));
}

TEST_F(DbTest, IteratorSeekAndMixedDirections) {
  OpenDefault();
  for (const char* k : {"a", "c", "e", "g"}) {
    ASSERT_TRUE(db_->Put({}, k, "v").ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator({}));
  iter->Seek("d");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "e");
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "c");
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), "e");
}

TEST_F(DbTest, SnapshotSeesFrozenState) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "k", "v1").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Put({}, "k", "v2").ok());
  ASSERT_TRUE(db_->Put({}, "new-key", "x").ok());

  // Current view.
  EXPECT_EQ(Get("k"), "v2");

  // Snapshot view via iterator (snapshot_sequence carried in ReadOptions is
  // the mechanism; the Snapshot object pins it against compaction GC).
  ReadOptions snap_opts;
  snap_opts.snapshot_sequence = 1;  // first put got sequence 1
  std::string value;
  ASSERT_TRUE(db_->Get(snap_opts, "k", &value).ok());
  EXPECT_EQ(value, "v1");
  EXPECT_TRUE(db_->Get(snap_opts, "new-key", &value).IsNotFound());

  db_->ReleaseSnapshot(snap);
}

TEST_F(DbTest, PaperCheckpointConfiguration) {
  // The exact configuration §3.1.1 describes: WAL off, compression off,
  // caching off, compaction off, async writes.
  Options options = BaseOptions();
  options.disable_wal = true;
  options.compression = CompressionType::kNone;
  options.disable_cache = true;
  options.disable_compaction = true;
  options.sync_writes = false;
  options.write_buffer_size = 32 * KiB;
  Open(options);

  const std::string block(8 * KiB, 'c');
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db_->Put({}, "ckpt/rank0/var" + std::to_string(i), block).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(true).ok());  // paper's writeBarrier

  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(Get("ckpt/rank0/var" + std::to_string(i)), block) << i;
  }
  // With compaction disabled, multiple L0 files accumulate and no
  // compactions ever run.
  EXPECT_EQ(db_->GetStats().compactions, 0u);
  EXPECT_GE(db_->GetStats().memtable_flushes, 2u);
}

TEST_F(DbTest, CompactionReducesFileCountAndPreservesData) {
  Options options = BaseOptions();
  options.disable_compaction = false;
  options.l0_compaction_trigger = 4;
  options.write_buffer_size = 8 * KiB;
  Open(options);

  std::map<std::string, std::string> model;
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 40; ++i) {
      const std::string key = "key" + std::to_string(rng.Uniform(200));
      const std::string value = "v" + std::to_string(round) + "-" + std::to_string(i);
      model[key] = value;
      ASSERT_TRUE(db_->Put({}, key, value).ok());
    }
  }
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_GE(db_->GetStats().compactions, 1u);

  for (const auto& [key, value] : model) {
    EXPECT_EQ(Get(key), value) << key;
  }
}

TEST_F(DbTest, CompactionDropsDeletedKeys) {
  Options options = BaseOptions();
  options.disable_compaction = false;
  Open(options);

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put({}, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  for (int i = 0; i < 100; i += 2) {
    ASSERT_TRUE(db_->Delete({}, "k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  ASSERT_TRUE(db_->CompactRange().ok());

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Get("k" + std::to_string(i)), (i % 2 == 0) ? "NOT_FOUND" : "v");
  }
}

TEST_F(DbTest, StatsCountOperations) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "a", "1").ok());
  ASSERT_TRUE(db_->Put({}, "b", "2").ok());
  ASSERT_TRUE(db_->Delete({}, "a").ok());
  (void)Get("b");
  (void)Get("missing");

  const DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.puts, 2u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.gets, 2u);
  EXPECT_EQ(stats.get_hits, 1u);
  EXPECT_GT(stats.bytes_written, 0u);
}

TEST_F(DbTest, DisableWalSkipsWalBytes) {
  Options options = BaseOptions();
  options.disable_wal = true;
  Open(options);
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  EXPECT_EQ(db_->GetStats().wal_bytes, 0u);

  options.disable_wal = false;
  Open(options);
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  EXPECT_GT(db_->GetStats().wal_bytes, 0u);
}

TEST_F(DbTest, ErrorIfExists) {
  OpenDefault();
  db_.reset();
  Options options = BaseOptions();
  options.error_if_exists = true;
  std::unique_ptr<DB> db2;
  EXPECT_TRUE(DB::Open(options, "/db", &db2).IsInvalidArgument());
}

TEST_F(DbTest, CreateIfMissingFalseFailsOnMissing) {
  Options options = BaseOptions();
  options.create_if_missing = false;
  std::unique_ptr<DB> db2;
  EXPECT_FALSE(DB::Open(options, "/nonexistent-db", &db2).ok());
}

TEST_F(DbTest, DestroyRemovesFiles) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  db_.reset();
  EXPECT_GT(fs_.FileCount(), 0u);
  ASSERT_TRUE(DB::Destroy(BaseOptions(), "/db").ok());
  EXPECT_EQ(fs_.FileCount(), 0u);
}

TEST_F(DbTest, LargeValues) {
  OpenDefault();
  Rng rng(123);
  std::string big(5 * MiB, '\0');
  rng.Fill(big.data(), big.size());
  ASSERT_TRUE(db_->Put({}, "big", big).ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  EXPECT_EQ(Get("big"), big);
}

TEST_F(DbTest, ReadOnlyOpenServesDataAndRejectsWrites) {
  OpenDefault();
  ASSERT_TRUE(db_->Put({}, "flushed", "table").ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  ASSERT_TRUE(db_->Put({}, "walled", "wal-only").ok());
  db_.reset();  // crash-style close: "walled" lives only in the WAL

  Options options = BaseOptions();
  options.read_only = true;
  std::unique_ptr<DB> ro;
  ASSERT_TRUE(DB::Open(options, "/db", &ro).ok());

  std::string value;
  ASSERT_TRUE(ro->Get({}, "flushed", &value).ok());
  EXPECT_EQ(value, "table");
  ASSERT_TRUE(ro->Get({}, "walled", &value).ok());  // replayed into memory
  EXPECT_EQ(value, "wal-only");

  EXPECT_TRUE(ro->Put({}, "nope", "x").IsInvalidArgument());
  EXPECT_TRUE(ro->Delete({}, "flushed").IsInvalidArgument());
  EXPECT_TRUE(ro->FlushMemTable(true).ok());  // harmless no-op
}

TEST_F(DbTest, ConcurrentReadOnlyOpensOfOneStore) {
  OpenDefault();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Put({}, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  db_.reset();

  // Many concurrent read-only opens must not corrupt the store (the
  // ADIOS2-plugin read path does exactly this across ranks).
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, &failures] {
      Options options = BaseOptions();
      options.read_only = true;
      std::unique_ptr<DB> ro;
      if (!DB::Open(options, "/db", &ro).ok()) {
        ++failures;
        return;
      }
      std::string value;
      for (int i = 0; i < 50; ++i) {
        if (!ro->Get({}, "k" + std::to_string(i), &value).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The store is still writable afterwards.
  OpenDefault();
  EXPECT_EQ(Get("k0"), "v");
}

TEST_F(DbTest, ReadOnlyOpenOfMissingDbFails) {
  Options options = BaseOptions();
  options.read_only = true;
  std::unique_ptr<DB> ro;
  EXPECT_TRUE(DB::Open(options, "/missing-db", &ro).IsNotFound());
}

TEST_F(DbTest, ApproximateMemoryUsageGrowsAndResets) {
  Options options = BaseOptions();
  options.write_buffer_size = 4 * MiB;  // no flush during the test
  Open(options);
  const uint64_t before = db_->GetStats().memtable_bytes;
  ASSERT_TRUE(db_->Put({}, "k", std::string(1 * MiB, 'x')).ok());
  EXPECT_GT(db_->GetStats().memtable_bytes, before + 512 * KiB);
}

// Vfs decorator that records, per created file, whether it was opened with
// OpenOptions::write_behind.
class WriteBehindRecordingVfs final : public vfs::Vfs {
 public:
  explicit WriteBehindRecordingVfs(vfs::Vfs& base) : base_(base) {}

  /// Path → write_behind of every file created since the last Clear.
  std::map<std::string, bool> Created() const {
    MutexLock lock(&mu_);
    return created_;
  }
  void Clear() {
    MutexLock lock(&mu_);
    created_.clear();
  }

  Status NewWritableFile(const std::string& path, const vfs::OpenOptions& opts,
                         std::unique_ptr<vfs::WritableFile>* file) override {
    {
      MutexLock lock(&mu_);
      created_[path] = opts.write_behind;
    }
    return base_.NewWritableFile(path, opts, file);
  }
  Status NewRandomAccessFile(const std::string& path, const vfs::OpenOptions& opts,
                             std::unique_ptr<vfs::RandomAccessFile>* file) override {
    return base_.NewRandomAccessFile(path, opts, file);
  }
  Status NewSequentialFile(const std::string& path, const vfs::OpenOptions& opts,
                           std::unique_ptr<vfs::SequentialFile>* file) override {
    return base_.NewSequentialFile(path, opts, file);
  }
  Status OpenFileHandle(const std::string& path, bool create,
                        const vfs::OpenOptions& opts,
                        std::unique_ptr<vfs::FileHandle>* file) override {
    return base_.OpenFileHandle(path, create, opts, file);
  }
  bool FileExists(const std::string& path) override { return base_.FileExists(path); }
  Status GetFileSize(const std::string& path, uint64_t* size) override {
    return base_.GetFileSize(path, size);
  }
  Status RemoveFile(const std::string& path) override { return base_.RemoveFile(path); }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_.RenameFile(from, to);
  }
  Status CreateDir(const std::string& path) override { return base_.CreateDir(path); }
  Status ListDir(const std::string& path, std::vector<std::string>* out) override {
    return base_.ListDir(path, out);
  }

 private:
  vfs::Vfs& base_;
  mutable Mutex mu_;
  std::map<std::string, bool> created_ GUARDED_BY(mu_);
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Counts the recorded files whose path ends in `suffix`, split by flag.
struct Opened {
  int write_behind = 0;
  int plain = 0;
};
Opened CountOpened(const WriteBehindRecordingVfs& fs, const std::string& suffix) {
  Opened n;
  for (const auto& [path, write_behind] : fs.Created()) {
    if (!EndsWith(path, suffix)) continue;
    ++(write_behind ? n.write_behind : n.plain);
  }
  return n;
}

// Only the flushes writers wait for write their tables behind; compaction
// outputs, the WAL, MANIFEST, CURRENT and blob segments open as before.
TEST(WriteBehindTest, OnlyFlushTablesWriteBehind) {
  vfs::MemVfs mem;
  WriteBehindRecordingVfs fs(mem);
  Options options;
  options.vfs = &fs;
  options.write_buffer_size = 64 * KiB;
  options.disable_compaction = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  EXPECT_EQ(CountOpened(fs, ".log").plain, 1);
  EXPECT_EQ(CountOpened(fs, ".log").write_behind, 0);
  EXPECT_EQ(CountOpened(fs, "/CURRENT.tmp").plain, 1);
  EXPECT_EQ(CountOpened(fs, "/CURRENT.tmp").write_behind, 0);
  int manifests = 0;
  for (const auto& [path, write_behind] : fs.Created()) {
    if (path.find("/MANIFEST-") == std::string::npos) continue;
    ++manifests;
    EXPECT_FALSE(write_behind) << path;
  }
  EXPECT_GE(manifests, 1);

  // Memtable flush.
  fs.Clear();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Put({}, "k" + std::to_string(i), "a").ok());
  }
  ASSERT_TRUE(db->FlushMemTable(true).ok());
  EXPECT_EQ(CountOpened(fs, ".sst").write_behind, 1);
  EXPECT_EQ(CountOpened(fs, ".sst").plain, 0);

  // Compaction output.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Put({}, "k" + std::to_string(i), "b").ok());
  }
  ASSERT_TRUE(db->FlushMemTable(true).ok());
  fs.Clear();
  ASSERT_TRUE(db->CompactRange().ok());
  EXPECT_GE(CountOpened(fs, ".sst").plain, 1);
  EXPECT_EQ(CountOpened(fs, ".sst").write_behind, 0);

  // WAL-replay flush at reopen: the unflushed puts come back as a table.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Put({}, "k" + std::to_string(i), "c").ok());
  }
  db.reset();
  fs.Clear();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  EXPECT_EQ(CountOpened(fs, ".sst").write_behind, 1);
  EXPECT_EQ(CountOpened(fs, ".sst").plain, 0);
  EXPECT_EQ(CountOpened(fs, ".log").write_behind, 0);
  std::string value;
  ASSERT_TRUE(db->Get({}, "k7", &value).ok());
  EXPECT_EQ(value, "c");
}

TEST(WriteBehindTest, ShardedStoreFlushesWriteBehind) {
  vfs::MemVfs mem;
  WriteBehindRecordingVfs fs(mem);
  Options options;
  options.vfs = &fs;
  options.num_shards = 4;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->Put({}, "k" + std::to_string(i), "v").ok());
  }
  fs.Clear();
  ASSERT_TRUE(db->FlushMemTable(true).ok());
  EXPECT_EQ(CountOpened(fs, ".sst").write_behind, 4);
  EXPECT_EQ(CountOpened(fs, ".sst").plain, 0);
}

TEST(WriteBehindTest, BlobSegmentsDoNotWriteBehind) {
  vfs::MemVfs mem;
  WriteBehindRecordingVfs fs(mem);
  Options options;
  options.vfs = &fs;
  options.value_log_threshold = 256;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ASSERT_TRUE(db->Put({}, "big", std::string(4 * KiB, 'x')).ok());
  ASSERT_TRUE(db->FlushMemTable(true).ok());
  EXPECT_GE(CountOpened(fs, ".blob").plain, 1);
  EXPECT_EQ(CountOpened(fs, ".blob").write_behind, 0);
  EXPECT_EQ(CountOpened(fs, ".sst").write_behind, 1);
}

}  // namespace
}  // namespace lsmio::lsm
