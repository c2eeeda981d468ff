#include "lsm/version.h"

#include <gtest/gtest.h>

#include "common/coding.h"
#include "lsm/comparator.h"
#include "lsm/log_writer.h"
#include "lsm/table_cache.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq) {
  std::string encoded;
  AppendInternalKey(&encoded, user_key, seq, ValueType::kValue);
  return encoded;
}

FileMetaData MakeFile(uint64_t number, const std::string& smallest,
                      const std::string& largest, uint64_t size = 1000) {
  FileMetaData f;
  f.number = number;
  f.file_size = size;
  f.smallest = IKey(smallest, 100);
  f.largest = IKey(largest, 1);
  return f;
}

class VersionSetTest : public ::testing::Test {
 protected:
  VersionSetTest() : icmp_(BytewiseComparator()) {
    options_.vfs = &fs_;
    table_cache_ = std::make_unique<TableCache>("/db", options_, &icmp_, nullptr,
                                                nullptr, 10);
    versions_ = std::make_unique<VersionSet>("/db", options_, &icmp_,
                                             table_cache_.get());
  }

  vfs::MemVfs fs_;
  Options options_;
  InternalKeyComparator icmp_;
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<VersionSet> versions_;
};

TEST_F(VersionSetTest, FileNumbersAreMonotonic) {
  const uint64_t a = versions_->NewFileNumber();
  const uint64_t b = versions_->NewFileNumber();
  EXPECT_GT(b, a);
  versions_->ReuseFileNumber(b);
  EXPECT_EQ(versions_->NewFileNumber(), b);
}

TEST_F(VersionSetTest, MakeVersionAddsAndRemoves) {
  auto v1 = versions_->MakeVersion({{0, MakeFile(10, "a", "m")}}, {});
  ASSERT_TRUE(versions_->LogAndApply(v1).ok());
  EXPECT_EQ(versions_->current()->NumFiles(0), 1);

  auto v2 = versions_->MakeVersion({{0, MakeFile(11, "n", "z")}}, {});
  ASSERT_TRUE(versions_->LogAndApply(v2).ok());
  EXPECT_EQ(versions_->current()->NumFiles(0), 2);

  auto v3 = versions_->MakeVersion({{1, MakeFile(12, "a", "z", 2000)}},
                                   {{0, 10}, {0, 11}});
  ASSERT_TRUE(versions_->LogAndApply(v3).ok());
  EXPECT_EQ(versions_->current()->NumFiles(0), 0);
  EXPECT_EQ(versions_->current()->NumFiles(1), 1);
  EXPECT_EQ(versions_->current()->TotalBytes(1), 2000u);
  EXPECT_EQ(versions_->current()->TotalFiles(), 1);
}

TEST_F(VersionSetTest, L0OrderedNewestFirst) {
  auto v = versions_->MakeVersion(
      {{0, MakeFile(5, "a", "c")}, {0, MakeFile(9, "a", "c")}, {0, MakeFile(7, "a", "c")}},
      {});
  EXPECT_EQ(v->files[0][0].number, 9u);
  EXPECT_EQ(v->files[0][1].number, 7u);
  EXPECT_EQ(v->files[0][2].number, 5u);
}

TEST_F(VersionSetTest, DeeperLevelsSortedBySmallestKey) {
  auto v = versions_->MakeVersion(
      {{2, MakeFile(5, "m", "p")}, {2, MakeFile(6, "a", "c")}, {2, MakeFile(7, "x", "z")}},
      {});
  EXPECT_EQ(v->files[2][0].number, 6u);
  EXPECT_EQ(v->files[2][1].number, 5u);
  EXPECT_EQ(v->files[2][2].number, 7u);
}

TEST_F(VersionSetTest, SnapshotSurvivesRecovery) {
  versions_->SetLastSequence(777);
  versions_->SetLogNumber(42);
  auto v = versions_->MakeVersion(
      {{0, MakeFile(10, "a", "m")}, {3, MakeFile(11, "n", "z", 5000)}}, {});
  ASSERT_TRUE(versions_->LogAndApply(v).ok());

  // Fresh VersionSet recovering from the same directory.
  VersionSet recovered("/db", options_, &icmp_, table_cache_.get());
  bool save_manifest = false;
  ASSERT_TRUE(recovered.Recover(&save_manifest).ok());
  EXPECT_EQ(recovered.LastSequence(), 777u);
  EXPECT_EQ(recovered.LogNumber(), 42u);
  EXPECT_EQ(recovered.current()->NumFiles(0), 1);
  EXPECT_EQ(recovered.current()->NumFiles(3), 1);
  EXPECT_EQ(recovered.current()->files[3][0].file_size, 5000u);
  EXPECT_EQ(recovered.current()->files[0][0].smallest, IKey("a", 100));
}

TEST_F(VersionSetTest, RecoverFailsWithoutCurrent) {
  VersionSet fresh("/empty-db", options_, &icmp_, table_cache_.get());
  bool save_manifest = false;
  EXPECT_FALSE(fresh.Recover(&save_manifest).ok());
}

TEST_F(VersionSetTest, AddLiveFilesListsEverything) {
  auto v = versions_->MakeVersion(
      {{0, MakeFile(10, "a", "b")}, {1, MakeFile(20, "c", "d")}, {4, MakeFile(30, "e", "f")}},
      {});
  ASSERT_TRUE(versions_->LogAndApply(v).ok());
  std::vector<uint64_t> live;
  versions_->AddLiveFiles(&live);
  std::sort(live.begin(), live.end());
  EXPECT_EQ(live, (std::vector<uint64_t>{10, 20, 30}));
}

TEST_F(VersionSetTest, ComparatorMismatchDetectedOnRecover) {
  ASSERT_TRUE(versions_->LogAndApply(versions_->MakeVersion({}, {})).ok());

  // A comparator with a different name.
  class WeirdComparator : public Comparator {
   public:
    int Compare(const Slice& a, const Slice& b) const override { return a.compare(b); }
    const char* Name() const override { return "weird.Comparator"; }
    void FindShortestSeparator(std::string*, const Slice&) const override {}
    void FindShortSuccessor(std::string*) const override {}
  } weird;
  InternalKeyComparator weird_icmp(&weird);
  VersionSet recovered("/db", options_, &weird_icmp, table_cache_.get());
  bool save_manifest = false;
  EXPECT_TRUE(recovered.Recover(&save_manifest).IsInvalidArgument());
}

// A CRC-valid manifest record whose blob-segment or blob-ref count promises
// more entries than the record holds is corrupt: recovery must say so, not
// size an allocation from the count.
TEST_F(VersionSetTest, HugeBlobCountsAreCorruption) {
  for (const bool huge_refs : {false, true}) {
    const std::string dbname = huge_refs ? "/huge-refs" : "/huge-segments";
    std::string record;
    PutLengthPrefixedSlice(&record, icmp_.user_comparator()->Name());
    PutVarint64(&record, 0);   // log number
    PutVarint64(&record, 10);  // next file number
    PutVarint64(&record, 0);   // last sequence
    PutVarint32(&record, 0);   // levels
    if (huge_refs) {
      PutVarint32(&record, 0);           // blob segments
      PutVarint32(&record, 1);           // files with refs
      PutVarint64(&record, 7);           // file number
      PutVarint32(&record, 0xFFFFFFFF);  // its refs
    } else {
      PutVarint32(&record, 0xFFFFFFFF);  // blob segments
    }
    std::unique_ptr<vfs::WritableFile> file;
    ASSERT_TRUE(fs_.NewWritableFile(ManifestFileName(dbname, 1), {}, &file).ok());
    log::Writer writer(file.get());
    ASSERT_TRUE(writer.AddRecord(record).ok());
    ASSERT_TRUE(file->Close().ok());
    ASSERT_TRUE(
        vfs::WriteStringToFile(fs_, CurrentFileName(dbname), "MANIFEST-000001\n").ok());

    VersionSet recovered(dbname, options_, &icmp_, table_cache_.get());
    bool save_manifest = false;
    EXPECT_TRUE(recovered.Recover(&save_manifest).IsCorruption()) << dbname;
  }
}

// The picker on hand-built Versions: no tables, no I/O.
class PickCompactionTest : public ::testing::Test {
 protected:
  PickCompactionTest() : icmp_(BytewiseComparator()), v_(&icmp_) {
    options_.l0_compaction_trigger = 2;
    options_.max_bytes_for_level_base = 10000;
  }

  CompactionPick Pick(const KeyRange* manual = nullptr,
                      const std::vector<uint64_t>& gc_segments = {}) const {
    return v_.PickCompaction(options_, manual, gc_segments);
  }

  static std::vector<uint64_t> Numbers(const std::vector<FileMetaData>& files) {
    std::vector<uint64_t> numbers;
    for (const auto& f : files) numbers.push_back(f.number);
    return numbers;
  }

  static FileMetaData Pinning(FileMetaData f, uint64_t segment) {
    f.blob_refs = {segment};
    return f;
  }

  InternalKeyComparator icmp_;
  Options options_;
  Version v_;
};

TEST_F(PickCompactionTest, NothingToDo) {
  v_.files[0] = {MakeFile(9, "a", "c")};  // under the L0 trigger
  v_.files[1] = {MakeFile(5, "a", "c")};  // under the L1 budget
  EXPECT_EQ(Pick().level, -1);
  EXPECT_TRUE(Pick().inputs.empty());
}

TEST_F(PickCompactionTest, SizePickTakesAllOfL0) {
  v_.files[0] = {MakeFile(9, "m", "p"), MakeFile(8, "a", "c")};
  const CompactionPick pick = Pick();
  EXPECT_EQ(pick.level, 0);
  EXPECT_EQ(pick.output_level, 1);
  EXPECT_EQ(Numbers(pick.inputs), (std::vector<uint64_t>{9, 8}));
  EXPECT_TRUE(pick.next_inputs.empty());
  EXPECT_TRUE(pick.bottommost);
}

TEST_F(PickCompactionTest, SizePickAtL1TakesTheFirstFile) {
  v_.files[1] = {MakeFile(5, "a", "c", 6000), MakeFile(6, "d", "f", 6000)};
  v_.files[3] = {MakeFile(2, "a", "z")};
  const CompactionPick pick = Pick();
  EXPECT_EQ(pick.level, 1);
  EXPECT_EQ(pick.output_level, 2);
  EXPECT_EQ(Numbers(pick.inputs), (std::vector<uint64_t>{5}));
  EXPECT_FALSE(pick.bottommost) << "L3 holds a file";
}

TEST_F(PickCompactionTest, NextLevelFilesThatOverlapJoin) {
  v_.files[1] = {MakeFile(5, "c", "f", 20000)};
  v_.files[2] = {MakeFile(10, "a", "b"), MakeFile(11, "c", "d"),
                 MakeFile(12, "e", "h"), MakeFile(13, "i", "k")};
  const CompactionPick pick = Pick();
  EXPECT_EQ(pick.level, 1);
  EXPECT_EQ(Numbers(pick.next_inputs), (std::vector<uint64_t>{11, 12}));
  EXPECT_TRUE(pick.bottommost);
}

TEST_F(PickCompactionTest, ManualRangeAtL0TakesAllOfL0) {
  v_.files[0] = {MakeFile(9, "x", "z"), MakeFile(8, "a", "c")};
  v_.files[1] = {MakeFile(5, "b", "d"), MakeFile(6, "m", "n")};
  const Slice b("b");
  const KeyRange range{&b, &b};
  const CompactionPick pick = Pick(&range);
  EXPECT_EQ(pick.level, 0);
  EXPECT_EQ(Numbers(pick.inputs), (std::vector<uint64_t>{9, 8}));
  EXPECT_EQ(Numbers(pick.next_inputs), (std::vector<uint64_t>{5, 6}))
      << "L0's whole span [a, z] overlaps both";

  const Slice m("o");
  const Slice n("p");
  const KeyRange disjoint{&m, &n};
  EXPECT_EQ(Pick(&disjoint).level, -1);
}

TEST_F(PickCompactionTest, ManualRangeAtL1TakesTheFirstOverlappingFile) {
  v_.files[1] = {MakeFile(5, "a", "c"), MakeFile(6, "d", "f"), MakeFile(7, "g", "i")};
  const Slice e("e");
  const Slice h("h");
  const KeyRange range{&e, &h};
  const CompactionPick pick = Pick(&range);
  EXPECT_EQ(pick.level, 1);
  EXPECT_EQ(Numbers(pick.inputs), (std::vector<uint64_t>{6}));
  const KeyRange unbounded;
  EXPECT_EQ(Numbers(Pick(&unbounded).inputs), (std::vector<uint64_t>{5}));
}

TEST_F(PickCompactionTest, GcPicksTheLowestPinningLevel) {
  options_.l0_compaction_trigger = 10;  // no size pick
  v_.files[0] = {Pinning(MakeFile(9, "a", "c"), 3)};
  v_.files[1] = {MakeFile(5, "a", "c"), Pinning(MakeFile(6, "d", "f"), 7)};
  v_.files[2] = {Pinning(MakeFile(4, "a", "z"), 7)};
  CompactionPick pick = Pick(nullptr, {7});
  EXPECT_EQ(pick.level, 1);
  EXPECT_EQ(Numbers(pick.inputs), (std::vector<uint64_t>{6}));
  EXPECT_EQ(Numbers(pick.next_inputs), (std::vector<uint64_t>{4}));

  // A pinning L0 file brings all of L0.
  v_.files[0].push_back(Pinning(MakeFile(8, "x", "z"), 7));
  pick = Pick(nullptr, {7});
  EXPECT_EQ(pick.level, 0);
  EXPECT_EQ(Numbers(pick.inputs), (std::vector<uint64_t>{9, 8}));

  EXPECT_EQ(Pick(nullptr, {99}).level, -1) << "no file pins segment 99";
}

TEST_F(PickCompactionTest, NeighboursSharingABoundaryKeyJoin) {
  // 5 and 6 share "k", 6 and 7 share "m": a store written before rolls
  // kept to user-key boundaries.
  v_.files[1] = {MakeFile(5, "a", "k", 20000), MakeFile(6, "k", "m"),
                 MakeFile(7, "m", "p"), MakeFile(8, "q", "z")};
  v_.files[2] = {MakeFile(10, "b", "c"), MakeFile(11, "c", "d"), MakeFile(12, "x", "z")};
  const CompactionPick pick = Pick();
  EXPECT_EQ(pick.level, 1);
  EXPECT_EQ(Numbers(pick.inputs), (std::vector<uint64_t>{5, 6, 7}));
  EXPECT_EQ(Numbers(pick.next_inputs), (std::vector<uint64_t>{10, 11}));
}

TEST_F(PickCompactionTest, LastLevelIsRewrittenInPlace) {
  constexpr int kLast = kNumLevels - 1;
  v_.files[kLast] = {MakeFile(5, "a", "c"), Pinning(MakeFile(6, "d", "f"), 7)};
  const CompactionPick pick = Pick(nullptr, {7});
  EXPECT_EQ(pick.level, kLast);
  EXPECT_EQ(pick.output_level, kLast);
  EXPECT_EQ(Numbers(pick.inputs), (std::vector<uint64_t>{6}));
  EXPECT_TRUE(pick.next_inputs.empty());
  EXPECT_TRUE(pick.bottommost);
}

}  // namespace
}  // namespace lsmio::lsm
