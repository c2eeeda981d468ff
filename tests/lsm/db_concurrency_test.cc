// Write-pipeline concurrency: group commit, the immutable-memtable queue,
// and independent flush/compaction scheduling. Writers from many threads
// must never lose an update, sequence numbers must stay contiguous, and a
// flush must complete while a manual compaction is still in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "lsm/db.h"
#include "vfs/fault_vfs.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

std::string Key(int thread, int i) {
  return "t" + std::to_string(thread) + ".key" + std::to_string(i);
}

class DbConcurrencyTest : public ::testing::Test {
 protected:
  Options BaseOptions() {
    Options options;
    options.vfs = &fs_;
    options.write_buffer_size = 64 * KiB;
    options.background_threads = 2;
    options.max_write_buffer_number = 4;
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

// N threads of interleaved Put/Delete with write barriers; afterwards every
// surviving key must be readable, every deleted key gone, and the engine
// must have allocated exactly one sequence number per operation (strictly
// ordered, no gaps or duplicates across write groups).
TEST_F(DbConcurrencyTest, ConcurrentWritersStress) {
  Options options = BaseOptions();
  options.disable_compaction = true;
  Open(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 300;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string value(512, static_cast<char>('a' + t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (!db_->Put({}, Key(t, i), value).ok()) ++failures;
        if (i % 3 == 0) {
          if (!db_->Delete({}, Key(t, i)).ok()) ++failures;
        }
        if (i % 100 == 99) {
          if (!db_->FlushMemTable(/*wait=*/false).ok()) ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  uint64_t expected_ops = 0;
  for (int t = 0; t < kThreads; ++t) {
    const std::string value(512, static_cast<char>('a' + t));
    for (int i = 0; i < kOpsPerThread; ++i) {
      expected_ops += (i % 3 == 0) ? 2 : 1;
      EXPECT_EQ(Get(Key(t, i)), i % 3 == 0 ? "NOT_FOUND" : value);
    }
  }

  const DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.puts, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.puts + stats.deletes, expected_ops);
  // Every DB::Write went through exactly one group.
  EXPECT_EQ(stats.group_commit_writers, expected_ops);
  EXPECT_GE(stats.group_commit_batches, 1u);
  EXPECT_LE(stats.group_commit_batches, stats.group_commit_writers);

  // Sequence numbers were allocated contiguously: the next write's batch
  // starts at exactly (total ops + 1).
  WriteBatch probe;
  probe.Put("probe", "p");
  ASSERT_TRUE(db_->Write({}, &probe).ok());
  EXPECT_EQ(probe.Sequence(), expected_ops + 1);
}

// Sync writers must survive grouping: each caller's durability request is
// honoured (a sync writer is never folded into a non-sync group).
TEST_F(DbConcurrencyTest, ConcurrentSyncWritersAllVisible) {
  Options options = BaseOptions();
  options.disable_compaction = true;
  Open(options);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 100;
  std::atomic<int> failures{0};
  WriteOptions sync_options;
  sync_options.sync = true;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (!db_->Put(sync_options, Key(t, i), "v").ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      EXPECT_EQ(Get(Key(t, i)), "v");
    }
  }
  const DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.group_commit_writers,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

// A burst larger than two memtables must roll into the immutable queue
// (max_write_buffer_number=4) without deadlock and stay fully readable,
// including the portion still queued behind an unfinished flush.
TEST_F(DbConcurrencyTest, MemTableQueueAbsorbsBurst) {
  Options options = BaseOptions();
  options.write_buffer_size = 16 * KiB;
  options.disable_compaction = true;
  Open(options);

  const std::string value(1 * KiB, 'b');
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(db_->Put({}, "burst" + std::to_string(i), value).ok());
  }
  // Readable while some of the burst is still in immutable memtables.
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(Get("burst" + std::to_string(i)), value);
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  const DbStats stats = db_->GetStats();
  EXPECT_GE(stats.memtable_flushes, 3u);
  EXPECT_EQ(stats.flush_queue_depth, 0u);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(Get("burst" + std::to_string(i)), value);
  }
}

// Vfs decorator that slows down appends to table files, making background
// work take long enough that flush/compaction overlap is observable.
class SlowTableVfs final : public vfs::Vfs {
 public:
  explicit SlowTableVfs(vfs::Vfs& base) : base_(base) {}

  Status NewWritableFile(const std::string& path, const vfs::OpenOptions& opts,
                         std::unique_ptr<vfs::WritableFile>* file) override {
    std::unique_ptr<vfs::WritableFile> inner;
    LSMIO_RETURN_IF_ERROR(base_.NewWritableFile(path, opts, &inner));
    const bool slow = path.size() > 4 && path.rfind(".sst") == path.size() - 4;
    *file = std::make_unique<Writable>(std::move(inner), slow ? delay_us_.load() : 0);
    return Status::OK();
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

  void set_delay_us(int delay) { delay_us_.store(delay); }

 private:
  class Writable final : public vfs::WritableFile {
   public:
    Writable(std::unique_ptr<vfs::WritableFile> inner, int delay_us)
        : inner_(std::move(inner)), delay_us_(delay_us) {}
    Status Append(const Slice& data) override {
      if (delay_us_ > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
      }
      return inner_->Append(data);
    }
    Status Flush() override { return inner_->Flush(); }
    Status Sync() override { return inner_->Sync(); }
    Status Close() override { return inner_->Close(); }
    [[nodiscard]] uint64_t Size() const override { return inner_->Size(); }

   private:
    std::unique_ptr<vfs::WritableFile> inner_;
    int delay_us_;
  };

  vfs::Vfs& base_;
  std::atomic<int> delay_us_{0};
};

// With two background threads, a memtable flush must complete while a
// manual compaction over many L0 files is still in flight.
TEST_F(DbConcurrencyTest, FlushProceedsDuringManualCompaction) {
  vfs::MemVfs mem;
  SlowTableVfs slow(mem);
  Options options = BaseOptions();
  options.vfs = &slow;
  options.disable_compaction = false;
  options.l0_compaction_trigger = 100;  // only manual compaction runs
  options.l0_stop_writes_trigger = 100;
  Open(options);

  // Several L0 files for the compaction to chew through.
  const std::string value(4 * KiB, 'c');
  for (int file = 0; file < 6; ++file) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          db_->Put({}, "l0." + std::to_string(file * 8 + i), value).ok());
    }
    ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  }
  ASSERT_GE(db_->GetStats().memtable_flushes, 6u);

  // Slow down table writes from here on: the compaction rewrites ~48 values
  // (one slow append per block) while the flush below writes only a few.
  slow.set_delay_us(3000);

  std::thread compactor([&] { EXPECT_TRUE(db_->CompactRange().ok()); });

  // Wait until the compaction is actually scheduled.
  while (db_->GetStats().compaction_queue_depth == 0 &&
         db_->GetStats().compactions == 0) {
    std::this_thread::yield();
  }

  ASSERT_TRUE(db_->Put({}, "during.compaction", "flushed").ok());
  const Status flush_status = db_->FlushMemTable(/*wait=*/true);
  EXPECT_TRUE(flush_status.ok()) << flush_status.ToString();
  const DbStats mid = db_->GetStats();
  EXPECT_GE(mid.memtable_flushes, 7u);

  compactor.join();
  EXPECT_GE(db_->GetStats().compactions, 1u);
  EXPECT_EQ(Get("during.compaction"), "flushed");
  EXPECT_EQ(Get("l0.0"), value);
  EXPECT_EQ(Get("l0.47"), value);
  db_.reset();  // before the local vfs stack unwinds
}

// Two shards' manual compactions must overlap in time: with
// background_threads=4 the store-wide limiter admits up to three
// concurrent compactions, and the slowed table writes keep each shard's
// compaction in its execute window long enough for the
// peak_concurrent_compactions gauge to observe both at once.
TEST_F(DbConcurrencyTest, ShardCompactionsRunConcurrently) {
  vfs::MemVfs mem;
  SlowTableVfs slow(mem);
  Options options = BaseOptions();
  options.vfs = &slow;
  options.num_shards = 2;
  options.background_threads = 4;
  options.disable_compaction = false;
  options.l0_compaction_trigger = 100;  // only manual compaction runs
  options.l0_stop_writes_trigger = 100;
  Open(options);

  // Several L0 files per shard for the compactions to chew through.
  const std::string value(4 * KiB, 'c');
  for (int file = 0; file < 4; ++file) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(
          db_->Put({}, "sc." + std::to_string(file * 16 + i), value).ok());
    }
    ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  }

  slow.set_delay_us(2000);
  ASSERT_TRUE(db_->CompactRange().ok());

  const DbStats stats = db_->GetStats();
  EXPECT_GE(stats.compactions, 2u);  // both shards compacted
  EXPECT_GE(stats.peak_concurrent_compactions, 2u);
  EXPECT_EQ(stats.concurrent_compactions, 0u);  // all drained
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(Get("sc." + std::to_string(i)), value);
  }
  db_.reset();  // before the local vfs stack unwinds
}

// MultiGet must return exactly what per-key Get returns at the same pinned
// sequence number while writers, flushes, and compactions churn the tree
// underneath the readers.
TEST_F(DbConcurrencyTest, MultiGetMatchesGetUnderConcurrency) {
  Options options = BaseOptions();
  options.write_buffer_size = 32 * KiB;
  options.disable_compaction = false;
  options.l0_compaction_trigger = 2;
  options.disable_cache = false;
  options.block_size = 1 * KiB;
  Open(options);

  constexpr int kKeys = 200;
  auto key_of = [](int i) { return "mg" + std::to_string(1000 + i); };

  // Seed every key so readers always have something to find.
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put({}, key_of(i), "seed").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    int round = 0;
    while (!stop.load()) {
      ++round;
      for (int i = 0; i < kKeys; ++i) {
        const std::string value =
            "round" + std::to_string(round) + "." + std::to_string(i);
        if (i % 17 == 0) {
          if (!db_->Delete({}, key_of(i)).ok()) ++failures;
        } else if (!db_->Put({}, key_of(i), value).ok()) {
          ++failures;
        }
      }
      if (round % 4 == 0 && !db_->FlushMemTable(/*wait=*/false).ok()) {
        ++failures;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::vector<std::string> keys;
      for (int i = 0; i < kKeys; ++i) keys.push_back(key_of(i));
      std::vector<Slice> slices(keys.begin(), keys.end());

      for (int pass = 0; pass < 40; ++pass) {
        // Pin one read point for both paths; MultiGet and Get must agree
        // bit-for-bit at that sequence. The registered snapshot (sequence
        // S0) keeps compaction from dropping any version visible at the
        // probe's sequence S >= S0; the probe write tells us S.
        const Snapshot* snap = db_->GetSnapshot();
        WriteBatch probe;
        probe.Put("mg.probe", "p");
        if (!db_->Write({}, &probe).ok()) {
          ++failures;
          db_->ReleaseSnapshot(snap);
          continue;
        }
        ReadOptions pinned;
        pinned.snapshot_sequence = probe.Sequence();

        std::vector<std::string> values;
        std::vector<Status> statuses;
        if (!db_->MultiGet(pinned, slices, &values, &statuses).ok()) {
          ++failures;
          db_->ReleaseSnapshot(snap);
          continue;
        }
        for (int i = 0; i < kKeys; ++i) {
          std::string single;
          const Status s = db_->Get(pinned, keys[i], &single);
          if (s.ok() != statuses[i].ok() ||
              s.IsNotFound() != statuses[i].IsNotFound() ||
              (s.ok() && single != values[i])) {
            ++failures;
          }
        }
        db_->ReleaseSnapshot(snap);
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);

  const DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.multiget_batches, 3u * 40u);
  EXPECT_EQ(stats.multiget_keys, stats.multiget_batches * kKeys);
}

// A manual compaction that fails must not wedge later CompactRange calls
// (the request flag is cleared on every exit path).
TEST_F(DbConcurrencyTest, FailedManualCompactionDoesNotWedge) {
  vfs::MemVfs mem;
  vfs::FaultVfs faulty(mem);
  Options options = BaseOptions();
  options.vfs = &faulty;
  options.disable_compaction = false;
  options.l0_compaction_trigger = 100;
  Open(options);

  for (int file = 0; file < 2; ++file) {
    ASSERT_TRUE(db_->Put({}, "k" + std::to_string(file), "v").ok());
    ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  }

  faulty.Arm({.countdown = 1});  // the compaction's table write fails
  const Status first = db_->CompactRange();
  EXPECT_FALSE(first.ok());
  faulty.Disarm();

  // Must return promptly (with the recorded error), not hang on a stale
  // manual_compaction_requested_ flag.
  const Status second = db_->CompactRange();
  EXPECT_FALSE(second.ok());
}

}  // namespace
}  // namespace lsmio::lsm
