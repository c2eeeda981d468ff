// DB::MultiGet correctness: hits/misses/deletes, batches spanning the
// memtable, immutable memtables, L0 and deeper levels, duplicate and
// unsorted keys, snapshot consistency, and the read-path statistics the
// batch path maintains (coalesced block reads, bloom filters, readahead).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "lsm/db.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

class MultiGetTest : public ::testing::Test {
 protected:
  Options BaseOptions() {
    Options options;
    options.vfs = &fs_;
    options.write_buffer_size = 64 * KiB;
    options.disable_compaction = true;
    return options;
  }

  void Open(Options options) {
    db_.reset();
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

  /// Runs MultiGet over `keys`; the batch-level status must be OK.
  std::vector<Status> Batch(const std::vector<std::string>& keys,
                            std::vector<std::string>* values,
                            ReadOptions read_options = {}) {
    std::vector<Slice> slices(keys.begin(), keys.end());
    std::vector<Status> statuses;
    const Status s = db_->MultiGet(read_options, slices, values, &statuses);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(values->size(), keys.size());
    EXPECT_EQ(statuses.size(), keys.size());
    return statuses;
  }

  std::string Get(const std::string& key, ReadOptions read_options = {}) {
    std::string value;
    const Status s = db_->Get(read_options, key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    EXPECT_TRUE(s.ok()) << s.ToString();
    return value;
  }

  vfs::MemVfs fs_;
  std::unique_ptr<DB> db_;
};

TEST_F(MultiGetTest, HitsMissesAndDeletes) {
  Open(BaseOptions());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put({}, "k" + std::to_string(100 + i), "v" + std::to_string(i)).ok());
    if (i % 25 == 24) ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  }
  for (int i = 0; i < 100; i += 10) {
    ASSERT_TRUE(db_->Delete({}, "k" + std::to_string(100 + i)).ok());
  }

  std::vector<std::string> keys;
  for (int i = 0; i < 100; ++i) keys.push_back("k" + std::to_string(100 + i));
  keys.push_back("absent.low");
  keys.push_back("zzz.absent.high");

  std::vector<std::string> values;
  const std::vector<Status> statuses = Batch(keys, &values);
  for (int i = 0; i < 100; ++i) {
    if (i % 10 == 0) {
      EXPECT_TRUE(statuses[i].IsNotFound()) << keys[i];
    } else {
      ASSERT_TRUE(statuses[i].ok()) << keys[i] << ": " << statuses[i].ToString();
      EXPECT_EQ(values[i], "v" + std::to_string(i));
    }
  }
  EXPECT_TRUE(statuses[100].IsNotFound());
  EXPECT_TRUE(statuses[101].IsNotFound());

  const DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.multiget_batches, 1u);
  EXPECT_EQ(stats.multiget_keys, keys.size());
}

// A batch whose keys live in the active memtable, an immutable memtable
// still queued for flush, L0 files, and a compacted deeper level must
// return the newest version of every key.
TEST_F(MultiGetTest, SpansMemtableAndAllLevels) {
  Options options = BaseOptions();
  options.disable_compaction = false;
  options.l0_compaction_trigger = 100;  // only manual compaction
  options.max_write_buffer_number = 4;
  Open(options);

  // Deep level: keys written, flushed, compacted.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Put({}, "deep" + std::to_string(i), "base").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  ASSERT_TRUE(db_->CompactRange().ok());

  // L0: overwrite some deep keys and add fresh ones, flushed but not compacted.
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(db_->Put({}, "deep" + std::to_string(i), "l0").ok());
    ASSERT_TRUE(db_->Put({}, "l0only" + std::to_string(i), "l0").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  // Immutable memtable: flush without waiting, then keep writing.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db_->Put({}, "deep" + std::to_string(i), "imm").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/false).ok());

  // Active memtable: newest overwrites.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_->Put({}, "deep" + std::to_string(i), "mem").ok());
  }

  std::vector<std::string> keys;
  std::vector<std::string> expected;
  for (int i = 0; i < 50; ++i) {
    keys.push_back("deep" + std::to_string(i));
    if (i < 5) expected.push_back("mem");
    else if (i < 10) expected.push_back("imm");
    else if (i < 25) expected.push_back("l0");
    else expected.push_back("base");
  }
  for (int i = 0; i < 25; ++i) {
    keys.push_back("l0only" + std::to_string(i));
    expected.push_back("l0");
  }

  std::vector<std::string> values;
  const std::vector<Status> statuses = Batch(keys, &values);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << keys[i] << ": " << statuses[i].ToString();
    EXPECT_EQ(values[i], expected[i]) << keys[i];
    EXPECT_EQ(values[i], Get(keys[i])) << keys[i];
  }
}

TEST_F(MultiGetTest, DuplicateAndUnsortedKeys) {
  Open(BaseOptions());
  ASSERT_TRUE(db_->Put({}, "alpha", "1").ok());
  ASSERT_TRUE(db_->Put({}, "mid", "2").ok());
  ASSERT_TRUE(db_->Put({}, "zeta", "3").ok());
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  const std::vector<std::string> keys = {"zeta", "alpha",  "missing", "alpha",
                                         "mid",  "missing", "zeta"};
  std::vector<std::string> values;
  const std::vector<Status> statuses = Batch(keys, &values);
  EXPECT_EQ(values[0], "3");
  EXPECT_EQ(values[1], "1");
  EXPECT_TRUE(statuses[2].IsNotFound());
  EXPECT_EQ(values[3], "1");
  EXPECT_EQ(values[4], "2");
  EXPECT_TRUE(statuses[5].IsNotFound());
  EXPECT_EQ(values[6], "3");
}

// The whole batch reads at one sequence number: a snapshot taken before an
// overwrite must return the old values for every key in the batch.
TEST_F(MultiGetTest, SnapshotConsistency) {
  Open(BaseOptions());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->Put({}, "s" + std::to_string(10 + i), "old").ok());
  }
  const SequenceNumber snap_seq = 20;  // after the 20 puts above
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_->Put({}, "s" + std::to_string(10 + i), "new").ok());
  }
  ASSERT_TRUE(db_->Put({}, "s.after", "new").ok());
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) keys.push_back("s" + std::to_string(10 + i));
  keys.push_back("s.after");

  ReadOptions at_snapshot;
  at_snapshot.snapshot_sequence = snap_seq;
  std::vector<std::string> values;
  const std::vector<Status> statuses = Batch(keys, &values, at_snapshot);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << keys[i];
    EXPECT_EQ(values[i], "old") << keys[i];
  }
  EXPECT_TRUE(statuses[20].IsNotFound());  // written after the snapshot

  // Without the snapshot the same batch sees the new world.
  const std::vector<Status> now = Batch(keys, &values);
  for (int i = 0; i <= 20; ++i) {
    ASSERT_TRUE(now[i].ok()) << keys[i];
    EXPECT_EQ(values[i], "new") << keys[i];
  }
}

// MultiGet and Get must both answer as the model does over a randomized
// workload that includes overwrites and deletes.
TEST_F(MultiGetTest, MatchesGetExactly) {
  Options options = BaseOptions();
  options.disable_cache = false;
  options.block_size = 512;
  Open(options);

  std::map<std::string, std::string> model;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::string key = "key" + std::to_string((i * 37 + round * 11) % 300);
      if ((i + round) % 7 == 0) {
        ASSERT_TRUE(db_->Delete({}, key).ok());
        model.erase(key);
      } else {
        const std::string value = "r" + std::to_string(round) + "." + std::to_string(i);
        ASSERT_TRUE(db_->Put({}, key, value).ok());
        model[key] = value;
      }
    }
    ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  }

  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) keys.push_back("key" + std::to_string(i));
  std::vector<std::string> values;
  const std::vector<Status> statuses = Batch(keys, &values);
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto it = model.find(keys[i]);
    if (it == model.end()) {
      EXPECT_TRUE(statuses[i].IsNotFound()) << keys[i];
      EXPECT_EQ(Get(keys[i]), "NOT_FOUND") << keys[i];
    } else {
      ASSERT_TRUE(statuses[i].ok()) << keys[i];
      EXPECT_EQ(values[i], it->second) << keys[i];
      EXPECT_EQ(Get(keys[i]), it->second) << keys[i];
    }
  }
}

// A dense batch over a multi-block table must coalesce adjacent block
// reads, and misses must be answered by the bloom filter without touching
// data blocks.
TEST_F(MultiGetTest, StatsCountCoalescingAndBloom) {
  Options options = BaseOptions();
  options.disable_cache = false;
  options.block_size = 512;  // many small adjacent data blocks
  Open(options);

  for (int i = 0; i < 400; i += 2) {  // only even keys exist
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    ASSERT_TRUE(db_->Put({}, key, std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  // Cold cache: reopen so no data block is cached. Odd keys land inside
  // the table's range, so only the bloom filter can prove them absent.
  Open(options);
  std::vector<std::string> keys;
  for (int i = 0; i < 400; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    keys.push_back(key);
  }

  std::vector<std::string> values;
  const std::vector<Status> statuses = Batch(keys, &values);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(statuses[i].ok()) << keys[i];
    } else {
      EXPECT_TRUE(statuses[i].IsNotFound()) << keys[i];
    }
  }

  const DbStats stats = db_->GetStats();
  EXPECT_GT(stats.multiget_coalesced_reads, 0u);
  EXPECT_GT(stats.bloom_checked, 0u);
  EXPECT_GT(stats.bloom_useful, 0u);  // the "nope" keys never touch blocks
  EXPECT_GT(stats.block_cache_misses, 0u);

  // Warm pass: the same batch now comes from the block cache.
  const uint64_t hits_before = stats.block_cache_hits;
  Batch(keys, &values);
  EXPECT_GT(db_->GetStats().block_cache_hits, hits_before);
}

// Iterator readahead (ReadOptions::readahead_bytes) and compaction
// readahead (a fixed 1 MiB window) must be accounted in
// DbStats::readahead_bytes.
TEST_F(MultiGetTest, ReadaheadIsAccounted) {
  Options options = BaseOptions();
  options.block_size = 512;
  Open(options);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db_->Put({}, "ra" + std::to_string(1000 + i), std::string(200, 'x')).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  {
    // Scoped: the iterator must not outlive the DB it came from (the
    // re-open below destroys it).
    ReadOptions scan;
    scan.readahead_bytes = 64 * KiB;
    std::unique_ptr<Iterator> iter(db_->NewIterator(scan));
    int count = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++count;
    EXPECT_EQ(count, 300);
    EXPECT_GT(db_->GetStats().readahead_bytes, 0u);
  }

  // Compaction scans its inputs with readahead.
  Options compacting = BaseOptions();
  compacting.disable_compaction = false;
  compacting.l0_compaction_trigger = 100;
  compacting.block_size = 512;
  Open(compacting);
  for (int file = 0; file < 3; ++file) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          db_->Put({}, "c" + std::to_string(i), std::string(200, 'y')).ok());
    }
    ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  }
  ASSERT_TRUE(db_->CompactRange().ok());
  EXPECT_GT(db_->GetStats().readahead_bytes, 0u);
}

// An empty batch is a no-op; a batch against an empty DB is all-NotFound.
TEST_F(MultiGetTest, EdgeBatches) {
  Open(BaseOptions());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(db_->MultiGet({}, {}, &values, &statuses).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());

  const std::vector<std::string> keys = {"a", "b"};
  const std::vector<Status> result = Batch(keys, &values);
  EXPECT_TRUE(result[0].IsNotFound());
  EXPECT_TRUE(result[1].IsNotFound());
}

}  // namespace
}  // namespace lsmio::lsm
