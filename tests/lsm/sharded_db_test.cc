// ShardedDB: hash-partitioned sub-LSMs behind the DB interface. Covers
// cross-shard routing (Put/Get/MultiGet/WriteBatch), merged iteration
// order, shard-count persistence and reopen mismatch rejection (both
// directions), stats aggregation, range-routed manual compaction, and the
// rule that a CompactRange touching L0 compacts all of L0.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/units.h"
#include "lsm/db.h"
#include "lsm/sharded_db.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

void Fill(uint64_t* stat, uint64_t value) { *stat = value; }
void Fill(Histogram* stat, uint64_t value) {
  for (uint64_t i = 0; i < value; ++i) stat->Add(static_cast<double>(i));
}

// Checks `merged`, the fold of `b` into `a`, against the rule of kind K.
template <StatKind K>
void ExpectMerged(const char* name, const StatValue<K>& a, const StatValue<K>& b,
                  const StatValue<K>& merged) {
  if constexpr (K == StatKind::kHistogram) {
    EXPECT_EQ(merged.count(), a.count() + b.count()) << name;
  } else if constexpr (K == StatKind::kCounter || K == StatKind::kGaugeSum) {
    EXPECT_EQ(merged, a + b) << name;
  } else {
    EXPECT_EQ(merged, std::max(a, b)) << name;
  }
}

void ExpectSame(const char* name, uint64_t want, uint64_t got) { EXPECT_EQ(got, want) << name; }
void ExpectSame(const char* name, const Histogram& want, const Histogram& got) {
  EXPECT_EQ(got.ToString(), want.ToString()) << name;
}

// Every row of the stats table gets distinct values, so a new statistic is
// covered without editing the test. Folding both ways round catches a merge
// that keeps either side instead of the max.
TEST(DbStatsTest, MergeFoldsEachStatisticByItsKind) {
  DbStats a;
  DbStats b;
  uint64_t row = 0;
#define LSMIO_FILL(name, kind, help) \
  ++row;                             \
  Fill(&a.name, 2 * row);            \
  Fill(&b.name, 2 * row + 1);
  LSMIO_DB_STATS(LSMIO_FILL)
#undef LSMIO_FILL

  DbStats ab = a;
  ab.Merge(b);
  DbStats ba = b;
  ba.Merge(a);
#define LSMIO_EXPECT_MERGED(name, kind, help)                    \
  ExpectMerged<StatKind::kind>(#name, a.name, b.name, ab.name); \
  ExpectMerged<StatKind::kind>(#name, b.name, a.name, ba.name);
  LSMIO_DB_STATS(LSMIO_EXPECT_MERGED)
#undef LSMIO_EXPECT_MERGED
}

class ShardedDbTest : public ::testing::Test {
 protected:
  Options BaseOptions(int num_shards) {
    Options options;
    options.vfs = &fs_;
    options.num_shards = num_shards;
    options.write_buffer_size = 64 * KiB;
    return options;
  }

  void Open(Options options) {
    db_.reset();
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

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

TEST_F(ShardedDbTest, PutGetAcrossShards) {
  Open(BaseOptions(4));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i),
                         "value" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(Get("key" + std::to_string(i)), "value" + std::to_string(i));
  }
  EXPECT_EQ(Get("missing"), "NOT_FOUND");
  // 200 hashed keys must actually land on more than one shard.
  std::vector<DbStats> per_shard;
  db_->GetShardStats(&per_shard);
  ASSERT_EQ(per_shard.size(), 4u);
  int shards_with_puts = 0;
  for (const DbStats& s : per_shard) {
    if (s.puts > 0) ++shards_with_puts;
  }
  EXPECT_GE(shards_with_puts, 2);
}

TEST_F(ShardedDbTest, MultiGetSpansShards) {
  Open(BaseOptions(4));
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(db_->Put({}, "mg" + std::to_string(i),
                         "v" + std::to_string(i)).ok());
  }
  std::vector<std::string> key_storage;
  for (int i = 0; i < 64; ++i) key_storage.push_back("mg" + std::to_string(i));
  key_storage.push_back("absent");
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());

  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet({}, keys, &values, &statuses).ok());
  ASSERT_EQ(values.size(), keys.size());
  ASSERT_EQ(statuses.size(), keys.size());
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(statuses[i].ok()) << i;
    EXPECT_EQ(values[i], "v" + std::to_string(i)) << i;
  }
  EXPECT_TRUE(statuses[64].IsNotFound());
}

TEST_F(ShardedDbTest, IteratorMergesShardsInKeyOrder) {
  Open(BaseOptions(4));
  std::set<std::string> expected;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "it" + std::to_string(i);  // it0, it1, it10, ...
    ASSERT_TRUE(db_->Put({}, key, "v").ok());
    expected.insert(key);
  }
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  std::vector<std::string> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen.push_back(it->key().ToString());
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  // std::set iterates in bytewise order — exactly the merged order.
  EXPECT_EQ(seen, std::vector<std::string>(expected.begin(), expected.end()));

  // Seek lands on the first key >= target across all shards.
  it->Seek("it50");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "it50");
}

TEST_F(ShardedDbTest, CrossShardWriteBatchAppliesEverywhere) {
  Open(BaseOptions(4));
  ASSERT_TRUE(db_->Put({}, "stale", "old").ok());
  WriteBatch batch;
  for (int i = 0; i < 32; ++i) {
    batch.Put("wb" + std::to_string(i), "wv" + std::to_string(i));
  }
  batch.Delete("stale");
  ASSERT_TRUE(db_->Write({}, &batch).ok());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(Get("wb" + std::to_string(i)), "wv" + std::to_string(i));
  }
  EXPECT_EQ(Get("stale"), "NOT_FOUND");
}

TEST_F(ShardedDbTest, DataSurvivesFlushAndReopen) {
  Open(BaseOptions(4));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put({}, "p" + std::to_string(i), "pv" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  for (int i = 100; i < 120; ++i) {  // these stay in the WALs
    ASSERT_TRUE(db_->Put({}, "p" + std::to_string(i), "pv" + std::to_string(i)).ok());
  }
  Open(BaseOptions(4));  // close + reopen
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(Get("p" + std::to_string(i)), "pv" + std::to_string(i)) << i;
  }
}

TEST_F(ShardedDbTest, ReopenWithDifferentShardCountIsRejected) {
  Open(BaseOptions(4));
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  db_.reset();

  std::unique_ptr<DB> reopened;
  // Sharded -> different shard count.
  Status s = DB::Open(BaseOptions(2), "/db", &reopened);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // Sharded -> unsharded.
  s = DB::Open(BaseOptions(1), "/db", &reopened);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // The matching count still opens.
  s = DB::Open(BaseOptions(4), "/db", &reopened);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(ShardedDbTest, UnshardedStoreRejectsShardedReopen) {
  Open(BaseOptions(1));
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  db_.reset();

  std::unique_ptr<DB> reopened;
  const Status s = DB::Open(BaseOptions(4), "/db", &reopened);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST_F(ShardedDbTest, DestroyRemovesMarkerAndShards) {
  Open(BaseOptions(4));
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  db_.reset();
  ASSERT_TRUE(DB::Destroy(BaseOptions(4), "/db").ok());
  EXPECT_FALSE(fs_.FileExists(ShardsMarkerFileName("/db")));
  // The path is reusable as an unsharded store afterwards.
  Open(BaseOptions(1));
  EXPECT_EQ(Get("k"), "NOT_FOUND");
}

// Forwards to a MemVfs and counts ListDir calls.
class ListDirCountingVfs final : public vfs::Vfs {
 public:
  explicit ListDirCountingVfs(vfs::Vfs& base) : base_(base) {}

  Status NewWritableFile(const std::string& path, const vfs::OpenOptions& opts,
                         std::unique_ptr<vfs::WritableFile>* file) override {
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
  Status OpenFileHandle(const std::string& path, bool create, const vfs::OpenOptions& opts,
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
    ++list_dir_calls;
    return base_.ListDir(path, out);
  }

  int list_dir_calls = 0;

 private:
  vfs::Vfs& base_;
};

// Destroy removes the shard directories it finds by listing the store, not
// every index below the marker's count: a marker inflated to 100,000 shards
// must not cost 100,000 directory scans.
TEST_F(ShardedDbTest, DestroyListsShardsInsteadOfTrustingTheMarker) {
  Open(BaseOptions(2));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->Put({}, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  db_.reset();
  ASSERT_TRUE(vfs::WriteStringToFile(fs_, ShardsMarkerFileName("/db"),
                                     "lsmio-shards-v1 100000\n")
                  .ok());

  ListDirCountingVfs counting(fs_);
  Options options = BaseOptions(2);
  options.vfs = &counting;
  ASSERT_TRUE(DB::Destroy(options, "/db").ok());
  EXPECT_LE(counting.list_dir_calls, 5);
  EXPECT_FALSE(fs_.FileExists(ShardsMarkerFileName("/db")));
  for (const char* dir : {"/db", "/db/shard-000", "/db/shard-001"}) {
    std::vector<std::string> children;
    ASSERT_TRUE(fs_.ListDir(dir, &children).ok()) << dir;
    for (const std::string& child : children) {
      EXPECT_EQ(child.rfind("shard-", 0), 0u) << dir << "/" << child;
    }
  }
}

TEST_F(ShardedDbTest, SnapshotSequenceReadsAreRejected) {
  Open(BaseOptions(4));
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  ReadOptions options;
  options.snapshot_sequence = 1;
  std::string value;
  EXPECT_TRUE(db_->Get(options, "k", &value).IsInvalidArgument());
  std::vector<Slice> keys = {"k"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  EXPECT_TRUE(db_->MultiGet(options, keys, &values, &statuses)
                  .IsInvalidArgument());
  std::unique_ptr<Iterator> it(db_->NewIterator(options));
  EXPECT_TRUE(it->status().IsInvalidArgument());
}

TEST_F(ShardedDbTest, StatsAggregateAcrossShards) {
  Open(BaseOptions(4));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put({}, "s" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  std::string value;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Get({}, "s" + std::to_string(i), &value).ok());
  }

  const DbStats total = db_->GetStats();
  EXPECT_EQ(total.shards, 4u);
  EXPECT_EQ(total.puts, 100u);
  EXPECT_EQ(total.gets, 100u);
  EXPECT_GE(total.memtable_flushes, 1u);

  // Every statistic of the aggregate is the Merge fold of the shards'.
  std::vector<DbStats> per_shard;
  db_->GetShardStats(&per_shard);
  ASSERT_EQ(per_shard.size(), 4u);
  DbStats folded;
  for (const DbStats& s : per_shard) folded.Merge(s);
#define LSMIO_EXPECT_SAME(name, kind, help) ExpectSame(#name, folded.name, total.name);
  LSMIO_DB_STATS(LSMIO_EXPECT_SAME)
#undef LSMIO_EXPECT_SAME
}

TEST_F(ShardedDbTest, CompactRangeCompactsEveryShard) {
  Options options = BaseOptions(4);
  options.disable_compaction = false;
  options.l0_compaction_trigger = 100;  // only manual compaction runs
  Open(options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put({}, "c" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_GE(db_->GetStats().compactions, 1u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(Get("c" + std::to_string(i)), "v" + std::to_string(i));
  }
}

// Manual compaction on a single LSM routes by key range: a range that
// overlaps no file is a no-op, and one that touches L0 runs one compaction
// of all of L0.
TEST_F(ShardedDbTest, ManualCompactionRoutesByRange) {
  Options options = BaseOptions(1);
  options.disable_compaction = false;
  options.l0_compaction_trigger = 100;
  Open(options);

  // Two disjoint L0 files: [a0..a9] and [x0..x9].
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Put({}, "a" + std::to_string(i), "av").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Put({}, "x" + std::to_string(i), "xv").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  // A range between the two files touches nothing.
  const Slice m = "m";
  const Slice n = "n";
  ASSERT_TRUE(db_->CompactRange(&m, &n).ok());
  EXPECT_EQ(db_->GetStats().compactions, 0u);

  // A range over the x-file runs one compaction.
  const Slice x_begin = "x";
  const Slice x_end = "xz";
  ASSERT_TRUE(db_->CompactRange(&x_begin, &x_end).ok());
  EXPECT_EQ(db_->GetStats().compactions, 1u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Get("a" + std::to_string(i)), "av");
    EXPECT_EQ(Get("x" + std::to_string(i)), "xv");
  }
}

// L0 files can overlap, and reads consult newest-first: a range compaction
// that picks a newer L0 file must also take every older L0 file whose key
// span overlaps it, directly or through another file, or the older file's
// stale versions would surface after the newer file moved to L1. Taking
// all of L0 covers that.
TEST_F(ShardedDbTest, ManualCompactionPullsOverlappingOlderL0Files) {
  Options options = BaseOptions(1);
  options.disable_compaction = false;
  options.l0_compaction_trigger = 100;
  Open(options);

  // Older L0 file spanning [b, z] with the stale version of "b".
  ASSERT_TRUE(db_->Put({}, "b", "old").ok());
  ASSERT_TRUE(db_->Put({}, "z", "zv").ok());
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  // Newer L0 file spanning [a, b] with the live version of "b".
  ASSERT_TRUE(db_->Put({}, "a", "av").ok());
  ASSERT_TRUE(db_->Put({}, "b", "new").ok());
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  // The request only names "a", which only the newer file contains; the
  // older file, which shares "b" with it, rides along.
  const Slice a = "a";
  ASSERT_TRUE(db_->CompactRange(&a, &a).ok());
  EXPECT_EQ(Get("a"), "av");
  EXPECT_EQ(Get("b"), "new");
  EXPECT_EQ(Get("z"), "zv");
}

}  // namespace
}  // namespace lsmio::lsm
