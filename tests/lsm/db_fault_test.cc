// Failure injection: the engine must surface I/O errors as Status (never
// crash or corrupt silently), and a store that survived a fault must still
// serve everything durably written before it.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>

#include "common/units.h"
#include "lsm/comparator.h"
#include "lsm/db.h"
#include "lsm/table_cache.h"
#include "lsm/version.h"
#include "vfs/fault_vfs.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

class DbFaultTest : public ::testing::Test {
 protected:
  DbFaultTest() : faulty_(mem_) {}

  Options MakeOptions() {
    Options options;
    options.vfs = &faulty_;
    options.write_buffer_size = 64 * KiB;
    return options;
  }

  vfs::MemVfs mem_;
  vfs::FaultVfs faulty_;
};

TEST_F(DbFaultTest, WalWriteFailureSurfacesToCaller) {
  Options options = MakeOptions();
  options.disable_wal = false;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  faulty_.Arm({.countdown = 1});  // next write-class op fails
  Status s = db->Put({}, "k", "v");
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_GE(faulty_.faults_injected(), 1);
  faulty_.Disarm();
}

TEST_F(DbFaultTest, FlushFailureReportedByBarrier) {
  Options options = MakeOptions();
  options.disable_wal = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  ASSERT_TRUE(db->Put({}, "k", std::string(8 * KiB, 'v')).ok());
  faulty_.Arm({.countdown = 1});
  // The flush happens in the background; the synchronous barrier must
  // observe and report the failure.
  Status s = db->FlushMemTable(true);
  EXPECT_FALSE(s.ok());
  faulty_.Disarm();
}

TEST_F(DbFaultTest, DataBeforeFaultSurvivesReopen) {
  Options options = MakeOptions();
  options.disable_wal = true;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    ASSERT_TRUE(db->Put({}, "durable", "yes").ok());
    ASSERT_TRUE(db->FlushMemTable(true).ok());  // durable before the fault

    ASSERT_TRUE(db->Put({}, "doomed", "maybe").ok());
    faulty_.Arm({.countdown = 1});
    db->FlushMemTable(true).IgnoreError();  // fails mid-flush, by design
    faulty_.Disarm();
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get({}, "durable", &value).ok());
  EXPECT_EQ(value, "yes");
}

TEST_F(DbFaultTest, LateFaultsDoNotAffectReads) {
  Options options = MakeOptions();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Put({}, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db->FlushMemTable(true).ok());

  faulty_.Arm({.countdown = 1});  // all further writes fail...
  std::string value;
  for (int i = 0; i < 20; ++i) {
    // ...but reads never touch the write path.
    EXPECT_TRUE(db->Get({}, "k" + std::to_string(i), &value).ok()) << i;
  }
  faulty_.Disarm();
}

TEST_F(DbFaultTest, OpenFailsCleanlyWhenManifestWriteFails) {
  faulty_.Arm({.countdown = 1});
  Options options = MakeOptions();
  std::unique_ptr<DB> db;
  const Status s = DB::Open(options, "/fresh", &db);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(db, nullptr);
  faulty_.Disarm();
}

// Numbers of the table files in the store directory.
std::set<uint64_t> TablesOnDisk(vfs::Vfs& fs) {
  std::set<uint64_t> tables;
  std::vector<std::string> children;
  EXPECT_TRUE(fs.ListDir("/db", &children).ok());
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == FileType::kTableFile) {
      tables.insert(number);
    }
  }
  return tables;
}

// Numbers of the table files the current Version references, recovered
// from the manifest of a closed store.
std::set<uint64_t> TablesInCurrentVersion(vfs::Vfs& fs) {
  Options options;
  options.vfs = &fs;
  const InternalKeyComparator icmp(BytewiseComparator());
  TableCache table_cache("/db", options, &icmp, nullptr, nullptr, 10);
  VersionSet versions("/db", options, &icmp, &table_cache);
  bool save_manifest = false;
  EXPECT_TRUE(versions.Recover(&save_manifest).ok());
  std::vector<uint64_t> live;
  versions.AddLiveFiles(&live);
  return {live.begin(), live.end()};
}

// A compaction whose output outgrows target_file_size rolls to further
// tables, finishing each one before the next opens. A failed fsync of a
// rolled output must fail the compaction without installing anything:
// the store latches read-only, keeps serving every acked key from the
// compaction's inputs, and the next open sweeps the outputs that were
// never installed.
TEST(DbCompactionOutputTest, RolledOutputSyncFailureKeepsInputs) {
  vfs::MemVfs mem;
  vfs::FaultVfs fs(mem);
  Options options;
  options.vfs = &fs;
  options.disable_compaction = false;
  options.l0_compaction_trigger = 100;  // only CompactRange compacts
  options.target_file_size = 16 * KiB;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  std::map<std::string, std::string> model;
  const auto write_all = [&](char fill) {
    for (int i = 0; i < 400; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%05d", i);
      model[key] = std::string(200, fill) + key;
      ASSERT_TRUE(db->Put({}, key, model[key]).ok());
    }
    ASSERT_TRUE(db->FlushMemTable(/*wait=*/true).ok());
  };
  const auto expect_all = [&] {
    for (const auto& [key, value] : model) {
      std::string got;
      ASSERT_TRUE(db->Get({}, key, &got).ok()) << key;
      EXPECT_EQ(got, value) << key;
    }
  };

  write_all('a');
  ASSERT_TRUE(db->CompactRange().ok());
  EXPECT_GE(TablesOnDisk(fs).size(), 3u) << "one compaction rolls to 3+ tables";
  expect_all();

  // A fresh compaction over the overwritten keys: the fsync of its second
  // output fails, and nothing else does.
  write_all('b');
  vfs::FaultPoint point;
  point.kind = vfs::FaultKind::kSyncFailure;
  point.file_classes = vfs::kTableFile;
  point.ops = vfs::kSyncOp;
  point.countdown = 2;
  point.sticky = false;
  fs.Arm(point);
  EXPECT_FALSE(db->CompactRange().ok());
  EXPECT_EQ(fs.faults_injected(), 1);
  EXPECT_FALSE(db->HealthStatus().ok());
  EXPECT_FALSE(db->Put({}, "after", "fault").ok());
  expect_all();

  fs.Disarm();
  db.reset();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  expect_all();
  db.reset();

  const std::set<uint64_t> live = TablesInCurrentVersion(fs);
  EXPECT_FALSE(live.empty());
  EXPECT_EQ(TablesOnDisk(fs), live);
}

}  // namespace
}  // namespace lsmio::lsm
