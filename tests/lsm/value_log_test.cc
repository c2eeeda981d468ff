// WAL-time key/value separation: threshold routing, segment rotation,
// checksum and stored-key verification, run reads of pointer batches,
// recovery of pointer entries, and live-pointer GC (including
// snapshot/iterator pinning of drained segments).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/units.h"
#include "lsm/db.h"
#include "lsm/value_log.h"
#include "lsm/write_batch.h"
#include "vfs/mem_vfs.h"
#include "vfs/trace_vfs.h"

namespace lsmio::lsm {
namespace {

std::vector<std::string> BlobFiles(vfs::Vfs& fs, const std::string& dbname) {
  std::vector<std::string> children;
  std::vector<std::string> blobs;
  if (!fs.ListDir(dbname, &children).ok()) return blobs;
  for (const auto& child : children) {
    if (child.size() > 5 && child.compare(child.size() - 5, 5, ".blob") == 0) {
      blobs.push_back(dbname + "/" + child);
    }
  }
  return blobs;
}

std::string Value(char fill, size_t n) { return std::string(n, fill); }

// Bytes of the blob record holding `key` and a value of `value_bytes`.
uint64_t RecordSize(const std::string& key, size_t value_bytes) {
  std::string header;
  PutVarint32(&header, static_cast<uint32_t>(key.size()));
  PutVarint32(&header, static_cast<uint32_t>(value_bytes));
  return 4 + header.size() + key.size() + value_bytes;
}

// Segment number of a blob file path ("/db/000007.blob" -> 7).
uint64_t SegmentNumber(const std::string& path) {
  return std::stoull(path.substr(path.rfind('/') + 1));
}

// Writes `ptr` as the value pointer of `key`, bypassing separation.
Status PutPointer(DB& db, const Slice& key, const ValuePointer& ptr) {
  std::string encoded;
  EncodeValuePointer(&encoded, ptr);
  WriteBatch batch;
  batch.PutPointer(key, encoded);
  return db.Write({}, &batch);
}

class ValueLogDbTest : public ::testing::Test {
 protected:
  Options BaseOptions() {
    Options options;
    options.vfs = &fs_;
    options.value_log_threshold = 64;
    return options;
  }

  void Open(const Options& options) {
    db_.reset();
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

  std::string Get(const Slice& key) {
    std::string value;
    const Status s = db_->Get({}, key, &value);
    return s.IsNotFound() ? "NOT_FOUND" : (s.ok() ? value : "ERR:" + s.ToString());
  }

  vfs::MemVfs fs_;
  std::unique_ptr<DB> db_;
};

TEST(ValuePointerCodec, RoundTripsAndRejectsTrailingBytes) {
  ValuePointer in;
  in.segment = 7;
  in.offset = 123456789;
  in.length = 42;
  std::string encoded;
  EncodeValuePointer(&encoded, in);

  ValuePointer out;
  ASSERT_TRUE(DecodeValuePointer(Slice(encoded), &out));
  EXPECT_EQ(out.segment, in.segment);
  EXPECT_EQ(out.offset, in.offset);
  EXPECT_EQ(out.length, in.length);

  encoded.push_back('\0');  // trailing byte: not exactly one pointer
  EXPECT_FALSE(DecodeValuePointer(Slice(encoded), &out));
  EXPECT_FALSE(DecodeValuePointer(Slice("\x01", 1), &out));
}

// Records appended to the active segment after a read opened its handle
// must resolve on a real file system, with pread and with mmap (whose
// mapping ends where the file ended at open).
TEST(ValueLogPosixTest, ReadsRecordsAppendedAfterTheHandleOpened) {
  for (const bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "pread");
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("lsmio_value_log_posix_" + std::to_string(::getpid()) + "_" + std::to_string(use_mmap));
    std::filesystem::remove_all(dir);
    Options options;
    options.value_log_threshold = 64;
    options.use_mmap = use_mmap;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dir.string(), &db).ok());
    for (int i = 0; i < 8; ++i) {
      const std::string key = "k" + std::to_string(i);
      ASSERT_TRUE(db->Put({}, key, Value(static_cast<char>('a' + i), 200)).ok());
      std::string value;
      const Status s = db->Get({}, key, &value);
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(value, Value(static_cast<char>('a' + i), 200));
    }
    db.reset();
    std::filesystem::remove_all(dir);
  }
}

TEST_F(ValueLogDbTest, ValuesBelowThresholdStayInline) {
  Open(BaseOptions());
  ASSERT_TRUE(db_->Put({}, "small", Value('s', 63)).ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  EXPECT_EQ(Get("small"), Value('s', 63));
  // Nothing crossed the threshold, so no blob segment was ever created.
  EXPECT_TRUE(BlobFiles(fs_, "/db").empty());
}

TEST_F(ValueLogDbTest, LargeValuesRouteToBlobSegments) {
  Open(BaseOptions());
  ASSERT_TRUE(db_->Put({}, "big", Value('b', 64)).ok());
  ASSERT_TRUE(db_->Put({}, "bigger", Value('c', 10 * KiB)).ok());
  ASSERT_TRUE(db_->Put({}, "small", "tiny").ok());
  EXPECT_FALSE(BlobFiles(fs_, "/db").empty());

  // Resolution from the memtable...
  EXPECT_EQ(Get("big"), Value('b', 64));
  EXPECT_EQ(Get("bigger"), Value('c', 10 * KiB));
  EXPECT_EQ(Get("small"), "tiny");

  // ...and from tables after a flush.
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  EXPECT_EQ(Get("big"), Value('b', 64));
  EXPECT_EQ(Get("bigger"), Value('c', 10 * KiB));

  // Iterators resolve lazily per position.
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  int seen = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ++seen;
    if (it->key() == Slice("bigger")) {
      EXPECT_EQ(it->value().ToString(), Value('c', 10 * KiB));
    }
  }
  EXPECT_EQ(seen, 3);
  EXPECT_TRUE(it->status().ok());

  // MultiGet resolves a mixed batch (the sorted-pointer run read).
  std::vector<Slice> keys = {"big", "missing", "small", "bigger"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet({}, keys, &values, &statuses).ok());
  EXPECT_EQ(values[0], Value('b', 64));
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_EQ(values[2], "tiny");
  EXPECT_EQ(values[3], Value('c', 10 * KiB));

  const DbStats stats = db_->GetStats();
  EXPECT_GT(stats.value_log_bytes_written, 10 * KiB);
  EXPECT_GE(stats.value_log_segments, 1U);
}

TEST_F(ValueLogDbTest, SegmentsRotateAtSizeCap) {
  Options options = BaseOptions();
  options.value_log_segment_size = 2 * KiB;
  Open(options);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(db_->Put({}, "k" + std::to_string(i), Value('a' + (i % 26), KiB)).ok());
  }
  // 16 KiB of records over a 2 KiB cap: several sealed segments.
  EXPECT_GE(BlobFiles(fs_, "/db").size(), 4U);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(Get("k" + std::to_string(i)), Value('a' + (i % 26), KiB)) << i;
  }
}

TEST_F(ValueLogDbTest, CorruptBlobRecordSurfacesChecksumError) {
  Open(BaseOptions());
  ASSERT_TRUE(db_->Put({}, "victim", Value('v', 256)).ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());

  const auto blobs = BlobFiles(fs_, "/db");
  ASSERT_EQ(blobs.size(), 1U);
  std::string contents;
  ASSERT_TRUE(vfs::ReadFileToString(fs_, blobs[0], &contents).ok());
  contents[contents.size() / 2] ^= 0x5c;  // flip a bit mid-value
  ASSERT_TRUE(vfs::WriteStringToFile(fs_, blobs[0], contents).ok());

  std::string value;
  EXPECT_TRUE(db_->Get({}, "victim", &value).IsCorruption());

  // The iterator latches the same failure into status().
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_TRUE(it->value().empty());
  EXPECT_TRUE(it->status().IsCorruption());
}

// A pointer stored under one key that addresses another key's intact
// record must not resolve to that key's value on any read path.
TEST_F(ValueLogDbTest, PointerToAnotherKeysRecordIsCorruption) {
  Open(BaseOptions());
  ASSERT_TRUE(db_->Put({}, "b", Value('b', KiB)).ok());
  const auto blobs = BlobFiles(fs_, "/db");
  ASSERT_EQ(blobs.size(), 1U);
  ASSERT_TRUE(
      PutPointer(*db_, "a", ValuePointer{SegmentNumber(blobs[0]), 0, RecordSize("b", KiB)})
          .ok());

  std::string value;
  EXPECT_TRUE(db_->Get({}, "a", &value).IsCorruption());
  EXPECT_EQ(Get("b"), Value('b', KiB));

  const std::vector<Slice> keys = {"a", "b"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet({}, keys, &values, &statuses).ok());
  EXPECT_TRUE(statuses[0].IsCorruption());
  EXPECT_EQ(values[1], Value('b', KiB));

  {
    std::unique_ptr<Iterator> it(db_->NewIterator({}));
    it->SeekToFirst();
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), Slice("a"));
    EXPECT_TRUE(it->value().empty());
    EXPECT_TRUE(it->status().IsCorruption());
  }

  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  EXPECT_TRUE(db_->Get({}, "a", &value).IsCorruption());
  EXPECT_EQ(Get("b"), Value('b', KiB));
}

TEST_F(ValueLogDbTest, WalReplayRecoversPointerEntries) {
  Open(BaseOptions());
  WriteOptions sync_write;
  sync_write.sync = true;
  ASSERT_TRUE(db_->Put(sync_write, "persisted", Value('p', 512)).ok());
  // No flush: recovery must replay the WAL's pointer op and validate it
  // against the blob segment.
  Open(BaseOptions());
  EXPECT_EQ(Get("persisted"), Value('p', 512));
}

// A replayed pointer op whose record does not read back is dropped: the
// key keeps its previous version, the rest of its batch applies, and the
// reopened store takes new writes.
TEST_F(ValueLogDbTest, WalReplayDropsDanglingPointer) {
  Open(BaseOptions());
  WriteOptions sync_write;
  sync_write.sync = true;
  ASSERT_TRUE(db_->Put(sync_write, "a", Value('1', 100)).ok());
  const auto blobs = BlobFiles(fs_, "/db");
  ASSERT_EQ(blobs.size(), 1U);
  const uint64_t record = RecordSize("a", 100);
  std::string dangling;
  EncodeValuePointer(&dangling, ValuePointer{SegmentNumber(blobs[0]), record, record});
  WriteBatch batch;
  batch.PutPointer("a", dangling);
  batch.Put("b", "v2");
  ASSERT_TRUE(db_->Write(sync_write, &batch).ok());

  Open(BaseOptions());  // closes without a flush, then replays the WAL
  EXPECT_EQ(Get("a"), Value('1', 100));
  EXPECT_EQ(Get("b"), "v2");
  ASSERT_TRUE(db_->Put(sync_write, "c", "v3").ok());
  EXPECT_EQ(Get("c"), "v3");
}

// One segment per value: reading more values than the 64 cached segment
// handles evicts and reopens handles, and a swept segment's handle goes
// with its file.
TEST_F(ValueLogDbTest, SegmentHandleCacheEvictsAndSweeps) {
  Options options = BaseOptions();
  options.value_log_segment_size = 1;
  Open(options);
  constexpr int kKeys = 80;
  const auto value_of = [](int i) { return Value(static_cast<char>('a' + i % 26), 100 + i); };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), value_of(i)).ok());
  }
  ASSERT_EQ(BlobFiles(fs_, "/db").size(), static_cast<size_t>(kKeys));
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_EQ(Get("key" + std::to_string(i)), value_of(i)) << round << " " << i;
    }
  }

  // Shadow key0's separated value and compact: its segment drains and is
  // swept.
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  ASSERT_TRUE(db_->Put({}, "key0", "inline").ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_EQ(db_->GetStats().value_log_segments_deleted, 1U);
  EXPECT_EQ(BlobFiles(fs_, "/db").size(), static_cast<size_t>(kKeys - 1));
  EXPECT_EQ(Get("key0"), "inline");
  for (int i = 1; i < kKeys; ++i) {
    EXPECT_EQ(Get("key" + std::to_string(i)), value_of(i)) << i;
  }
}

TEST_F(ValueLogDbTest, ReopenWithThresholdZeroStillResolvesOldPointers) {
  Open(BaseOptions());
  ASSERT_TRUE(db_->Put({}, "legacy", Value('l', 256)).ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());

  Options no_separation = BaseOptions();
  no_separation.value_log_threshold = 0;
  Open(no_separation);
  EXPECT_EQ(Get("legacy"), Value('l', 256));
  // New large values stay inline now...
  ASSERT_TRUE(db_->Put({}, "inline", Value('i', 256)).ok());
  EXPECT_EQ(Get("inline"), Value('i', 256));
  const size_t blobs_before = BlobFiles(fs_, "/db").size();
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  // ...and no new segment appears.
  EXPECT_EQ(BlobFiles(fs_, "/db").size(), blobs_before);
}

TEST_F(ValueLogDbTest, ThresholdZeroStoreWritesNoBlobFiles) {
  Options options = BaseOptions();
  options.value_log_threshold = 0;
  Open(options);
  ASSERT_TRUE(db_->Put({}, "k", Value('x', 64 * KiB)).ok());
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  EXPECT_TRUE(BlobFiles(fs_, "/db").empty());
  EXPECT_EQ(db_->GetStats().value_log_segments, 0U);
  EXPECT_EQ(Get("k"), Value('x', 64 * KiB));
}

// Pointer resolution reads runs of adjacent records, counted as the blob
// reads a TraceVfs records.
class ValueLogRunReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Options options;
    options.vfs = &fs_;
    options.value_log_threshold = 64;
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

  // (offset, length) of each blob-segment read since the last call.
  std::vector<std::pair<uint64_t, uint64_t>> BlobReads() {
    std::vector<std::pair<uint64_t, uint64_t>> reads;
    const std::vector<vfs::IoOp>& ops = ctx_.TraceForRank(0).ops;
    for (; seen_ops_ < ops.size(); ++seen_ops_) {
      const vfs::IoOp& op = ops[seen_ops_];
      if (op.kind != vfs::IoOpKind::kRead) continue;
      const std::string& path = ctx_.PathOf(op.file);
      if (path.size() > 5 && path.compare(path.size() - 5, 5, ".blob") == 0) {
        reads.emplace_back(op.offset, op.size);
      }
    }
    return reads;
  }

  // MultiGet of `keys`; every status must be OK.
  std::vector<std::string> MultiGetAll(const std::vector<Slice>& keys) {
    std::vector<std::string> values;
    std::vector<Status> statuses;
    EXPECT_TRUE(db_->MultiGet({}, keys, &values, &statuses).ok());
    for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();
    return values;
  }

  vfs::MemVfs base_;
  vfs::TraceContext ctx_{1};
  vfs::TraceVfs fs_{base_, ctx_, 0};
  std::unique_ptr<DB> db_;
  size_t seen_ops_ = 0;
};

TEST_F(ValueLogRunReadTest, AdjacentPointersAreOneRead) {
  constexpr int kKeys = 8;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("k" + std::to_string(i));
    ASSERT_TRUE(db_->Put({}, keys.back(), Value('a' + i, KiB)).ok());
  }
  BlobReads();
  const std::vector<Slice> batch(keys.rbegin(), keys.rend());
  const std::vector<std::string> values = MultiGetAll(batch);
  for (int i = 0; i < kKeys; ++i) EXPECT_EQ(values[i], Value('a' + kKeys - 1 - i, KiB));
  const auto reads = BlobReads();
  ASSERT_EQ(reads.size(), 1U);
  EXPECT_EQ(reads[0], std::make_pair(uint64_t{0}, kKeys * RecordSize("k0", KiB)));
}

TEST_F(ValueLogRunReadTest, LonePointerReadsExactlyItsRecord) {
  ASSERT_TRUE(db_->Put({}, "k0", Value('x', KiB)).ok());
  ASSERT_TRUE(db_->Put({}, "k1", Value('y', KiB)).ok());
  BlobReads();
  std::string value;
  ASSERT_TRUE(db_->Get({}, "k1", &value).ok());
  EXPECT_EQ(value, Value('y', KiB));
  const auto reads = BlobReads();
  ASSERT_EQ(reads.size(), 1U);
  EXPECT_EQ(reads[0], std::make_pair(RecordSize("k0", KiB), RecordSize("k1", KiB)));
}

// Two records ~8 MiB apart in one segment are two reads of one record
// each: the gap between them is never read.
TEST_F(ValueLogRunReadTest, DistantPointersReadOnlyTheirRecords) {
  ASSERT_TRUE(db_->Put({}, "first", Value('f', KiB)).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db_->Put({}, "fill" + std::to_string(i), Value('z', MiB)).ok());
  }
  ASSERT_TRUE(db_->Put({}, "last", Value('l', KiB)).ok());
  ASSERT_EQ(BlobFiles(base_, "/db").size(), 1U);
  BlobReads();
  const std::vector<std::string> values = MultiGetAll({"last", "first"});
  EXPECT_EQ(values[0], Value('l', KiB));
  EXPECT_EQ(values[1], Value('f', KiB));
  const auto reads = BlobReads();
  ASSERT_EQ(reads.size(), 2U);
  EXPECT_EQ(reads[0].second, RecordSize("first", KiB));
  EXPECT_EQ(reads[1].second, RecordSize("last", KiB));
}

// A pointer whose record passes the segment's end, or whose end wraps, is
// Corruption for its key alone; the rest of its run resolves.
TEST_F(ValueLogRunReadTest, OutOfRangePointerFailsOnlyItsKey) {
  for (const char* key : {"a", "b", "c"}) {
    ASSERT_TRUE(db_->Put({}, key, Value(key[0], KiB)).ok());
  }
  const auto blobs = BlobFiles(base_, "/db");
  ASSERT_EQ(blobs.size(), 1U);
  const uint64_t segment = SegmentNumber(blobs[0]);
  const uint64_t record = RecordSize("a", KiB);
  ASSERT_TRUE(PutPointer(*db_, "past_end", ValuePointer{segment, 3 * record, record}).ok());
  ASSERT_TRUE(
      PutPointer(*db_, "wraps", ValuePointer{segment, UINT64_MAX - 10, record}).ok());
  BlobReads();

  const std::vector<Slice> keys = {"wraps", "c", "past_end", "a", "b"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet({}, keys, &values, &statuses).ok());
  EXPECT_TRUE(statuses[0].IsCorruption()) << statuses[0].ToString();
  EXPECT_TRUE(statuses[2].IsCorruption()) << statuses[2].ToString();
  EXPECT_EQ(values[1], Value('c', KiB));
  EXPECT_EQ(values[3], Value('a', KiB));
  EXPECT_EQ(values[4], Value('b', KiB));
  // a, b, c and past_end are one run; the wrapping pointer is never read.
  EXPECT_EQ(BlobReads().size(), 1U);
}

// GC scaffolding: leveled compaction on, small segments so overwritten
// batches drain whole segments, and enough churn to cross the garbage
// ratio. CompactRange() drives compactions deterministically.
class ValueLogGcTest : public ValueLogDbTest {
 protected:
  Options GcOptions() {
    Options options = BaseOptions();
    options.value_log_segment_size = 4 * KiB;
    options.value_log_gc_garbage_ratio = 0.5;
    options.write_buffer_size = 16 * KiB;
    options.l0_compaction_trigger = 2;
    return options;
  }

  void PutRound(char fill) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), Value(fill, KiB)).ok());
    }
    ASSERT_TRUE(db_->FlushMemTable(true).ok());
  }

  // Repeated manual compactions: the first applies garbage accounting, the
  // later ones pick up the now-over-threshold segments, relocate their live
  // records, and sweep drained segment files.
  void DriveGc(int rounds = 4) {
    for (int i = 0; i < rounds; ++i) {
      ASSERT_TRUE(db_->CompactRange().ok());
    }
  }
};

TEST_F(ValueLogGcTest, OverwrittenSegmentsAreReclaimed) {
  Open(GcOptions());
  PutRound('a');
  PutRound('b');  // every 'a' record is now garbage
  DriveGc();

  const DbStats stats = db_->GetStats();
  EXPECT_GT(stats.value_log_segments_deleted, 0U) << "no segment reclaimed";
  // Everything still reads back the newest round.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(Get("key" + std::to_string(i)), Value('b', KiB)) << i;
  }
  // The registry and the directory agree.
  EXPECT_EQ(BlobFiles(fs_, "/db").size(), db_->GetStats().value_log_segments);
}

TEST_F(ValueLogGcTest, SnapshotReadsSurviveRelocationAndDeferDeletion) {
  Open(GcOptions());
  PutRound('a');
  const Snapshot* snap = db_->GetSnapshot();
  ReadOptions at_snap;
  at_snap.snapshot_sequence = 12;  // after the 12 'a' puts

  PutRound('b');
  DriveGc();

  // The snapshot still resolves every old value: entries above the
  // smallest snapshot are never dropped, and relocation preserves the
  // original sequence numbers.
  for (int i = 0; i < 12; ++i) {
    std::string value;
    ASSERT_TRUE(db_->Get(at_snap, "key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, Value('a', KiB)) << i;
  }

  db_->ReleaseSnapshot(snap);
  DriveGc();
  const DbStats stats = db_->GetStats();
  EXPECT_GT(stats.value_log_segments_deleted, 0U);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(Get("key" + std::to_string(i)), Value('b', KiB)) << i;
  }
}

TEST_F(ValueLogGcTest, OpenIteratorPinsSegmentsAgainstDeletion) {
  Open(GcOptions());
  PutRound('a');

  // The iterator pins the pre-overwrite Version; its weak_ptr guards any
  // segment drained while it is open.
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());

  PutRound('b');
  DriveGc();

  // Every position the iterator visits must still resolve.
  int seen = 0;
  for (; it->Valid(); it->Next()) {
    EXPECT_EQ(it->value().size(), KiB) << it->key().ToString();
    ++seen;
  }
  EXPECT_EQ(seen, 12);
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  it.reset();

  DriveGc();
  EXPECT_GT(db_->GetStats().value_log_segments_deleted, 0U);
}

TEST_F(ValueLogGcTest, GcStateSurvivesReopen) {
  Open(GcOptions());
  PutRound('a');
  PutRound('b');
  DriveGc();
  const uint64_t live_before = db_->GetStats().value_log_live_bytes;

  Open(GcOptions());
  // Per-segment accounting came back from the manifest, not a rescan that
  // would have reset everything to fully-live.
  EXPECT_EQ(db_->GetStats().value_log_live_bytes, live_before);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(Get("key" + std::to_string(i)), Value('b', KiB)) << i;
  }
}

TEST_F(ValueLogGcTest, ShardedStoreAggregatesValueLogStats) {
  Options options = GcOptions();
  options.num_shards = 4;
  Open(options);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), Value('s', KiB)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(true).ok());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(Get("key" + std::to_string(i)), Value('s', KiB)) << i;
  }
  const DbStats stats = db_->GetStats();
  EXPECT_GE(stats.value_log_bytes_written, 32 * KiB);
  EXPECT_GE(stats.value_log_segments, 1U);

  std::vector<DbStats> per_shard;
  db_->GetShardStats(&per_shard);
  ASSERT_EQ(per_shard.size(), 4U);
  uint64_t summed = 0;
  for (const DbStats& s : per_shard) summed += s.value_log_bytes_written;
  EXPECT_EQ(summed, stats.value_log_bytes_written);
}

}  // namespace
}  // namespace lsmio::lsm
