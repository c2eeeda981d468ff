// Snapshot semantics under flush and compaction: a pinned snapshot must
// keep old versions readable even as the engine rewrites tables.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/units.h"
#include "lsm/comparator.h"
#include "lsm/db.h"
#include "lsm/table_cache.h"
#include "lsm/version.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

class DbSnapshotTest : public ::testing::Test {
 protected:
  void Open(bool compaction) {
    Options options;
    options.vfs = &fs_;
    options.write_buffer_size = 32 * KiB;
    options.disable_compaction = !compaction;
    options.l0_compaction_trigger = 2;
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

  std::string GetAt(const Slice& key, SequenceNumber seq) {
    ReadOptions options;
    options.snapshot_sequence = seq;
    std::string value;
    const Status s = db_->Get(options, key, &value);
    return s.IsNotFound() ? "NOT_FOUND" : (s.ok() ? value : "ERR");
  }

  vfs::MemVfs fs_;
  std::unique_ptr<DB> db_;
};

TEST_F(DbSnapshotTest, SnapshotSurvivesFlush) {
  Open(/*compaction=*/false);
  ASSERT_TRUE(db_->Put({}, "k", "v1").ok());  // seq 1
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Put({}, "k", "v2").ok());  // seq 2
  ASSERT_TRUE(db_->FlushMemTable(true).ok());

  EXPECT_EQ(GetAt("k", 1), "v1");  // old version still on disk
  EXPECT_EQ(GetAt("k", 0), "v2");
  db_->ReleaseSnapshot(snap);
}

TEST_F(DbSnapshotTest, PinnedSnapshotSurvivesCompaction) {
  Open(/*compaction=*/true);
  ASSERT_TRUE(db_->Put({}, "k", "old").ok());  // seq 1
  const Snapshot* snap = db_->GetSnapshot();

  // Churn enough data through flushes + compactions to rewrite the world.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          db_->Put({}, "filler" + std::to_string(i), std::string(1024, 'f')).ok());
    }
    ASSERT_TRUE(db_->Put({}, "k", "new" + std::to_string(round)).ok());
    ASSERT_TRUE(db_->FlushMemTable(true).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());

  // The pinned snapshot still sees the original version.
  EXPECT_EQ(GetAt("k", 1), "old");
  EXPECT_EQ(GetAt("k", 0), "new3");
  db_->ReleaseSnapshot(snap);

  // After release, a full compaction may drop the old version; the latest
  // must remain.
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(GetAt("k", 0), "new3");
}

TEST_F(DbSnapshotTest, IteratorAtSnapshotIsStable) {
  Open(/*compaction=*/false);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Put({}, "k" + std::to_string(i), "before").ok());
  }
  ReadOptions at_snapshot;
  at_snapshot.snapshot_sequence = 10;

  // Mutate heavily after the snapshot point.
  for (int i = 0; i < 10; i += 2) {
    ASSERT_TRUE(db_->Delete({}, "k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Put({}, "zz-new", "after").ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());

  std::unique_ptr<Iterator> iter(db_->NewIterator(at_snapshot));
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_EQ(iter->value().ToString(), "before");
    ++count;
  }
  EXPECT_EQ(count, 10);  // no deletions, no zz-new
}

TEST_F(DbSnapshotTest, MultipleSnapshotsIndependent) {
  Open(/*compaction=*/false);
  ASSERT_TRUE(db_->Put({}, "k", "a").ok());  // seq 1
  ASSERT_TRUE(db_->Put({}, "k", "b").ok());  // seq 2
  ASSERT_TRUE(db_->Put({}, "k", "c").ok());  // seq 3
  EXPECT_EQ(GetAt("k", 1), "a");
  EXPECT_EQ(GetAt("k", 2), "b");
  EXPECT_EQ(GetAt("k", 3), "c");
}

// The files of `level` in the current Version, recovered from the manifest
// of the closed store at /db.
std::vector<FileMetaData> LevelFiles(vfs::Vfs& fs, int level) {
  Options options;
  options.vfs = &fs;
  const InternalKeyComparator icmp(BytewiseComparator());
  TableCache table_cache("/db", options, &icmp, nullptr, nullptr, 10);
  VersionSet versions("/db", options, &icmp, &table_cache);
  bool save_manifest = false;
  EXPECT_TRUE(versions.Recover(&save_manifest).ok());
  return versions.current()->files[level];
}

std::string UserKeyOf(const std::string& internal_key) {
  return ExtractUserKey(Slice(internal_key)).ToString();
}

// A snapshot keeps two versions of every key through a compaction whose
// output rolls at a small target_file_size. A roll between the two
// versions of one key would put them in two L1 tables, and a later
// compaction of the first table alone would move the newer version below
// the older one, which reads would then return.
TEST(DbSnapshotRollTest, RolledOutputsNeverSplitAKey) {
  vfs::MemVfs fs;
  Options options;
  options.vfs = &fs;
  options.disable_compaction = false;
  options.l0_compaction_trigger = 100;  // only CompactRange compacts
  options.target_file_size = 4 * KiB;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%05d", i);
    keys.emplace_back(key);
  }
  const auto write_all = [&](char fill) {
    for (const auto& key : keys) {
      ASSERT_TRUE(db->Put({}, key, std::string(100, fill)).ok());
    }
    ASSERT_TRUE(db->FlushMemTable(/*wait=*/true).ok());
  };
  write_all('a');
  const Snapshot* snap = db->GetSnapshot();
  write_all('b');
  ASSERT_TRUE(db->CompactRange().ok());  // both versions of every key to L1
  db->ReleaseSnapshot(snap);
  db.reset();

  const std::vector<FileMetaData> l1 = LevelFiles(fs, 1);
  ASSERT_GE(l1.size(), 3u) << "the compaction rolls to 3+ tables";
  for (size_t i = 1; i < l1.size(); ++i) {
    EXPECT_LT(UserKeyOf(l1[i - 1].largest), UserKeyOf(l1[i].smallest))
        << "L1 tables " << i - 1 << " and " << i << " share a user key";
  }

  // Compact the first L1 table's key range alone, down to L2.
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  const std::string first = UserKeyOf(l1[0].smallest);
  const std::string last = UserKeyOf(l1[0].largest);
  const Slice begin(first);
  const Slice end(last);
  ASSERT_TRUE(db->CompactRange(&begin, &end).ok());

  const std::string newest(100, 'b');
  for (const auto& key : keys) {
    std::string value;
    ASSERT_TRUE(db->Get({}, key, &value).ok()) << key;
    EXPECT_EQ(value, newest) << key;
  }
  const std::vector<Slice> slices(keys.begin(), keys.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db->MultiGet({}, slices, &values, &statuses).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << keys[i];
    EXPECT_EQ(values[i], newest) << keys[i];
  }
}

}  // namespace
}  // namespace lsmio::lsm
