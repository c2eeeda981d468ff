// Write backpressure end-to-end: graduated slowdown delays vs hard stalls,
// the split stall-cause counters, non-multiplying stall accounting under
// writer herds, background I/O rate limiting, and per-operation latency
// histograms (single shard and sharded aggregation).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "lsm/db.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

class DbBackpressureTest : public ::testing::Test {
 protected:
  Options BaseOptions() {
    Options options;
    options.vfs = &fs_;
    options.write_buffer_size = 4 * KiB;
    options.background_threads = 2;
    return options;
  }

  void Open(Options options) {
    db_.reset();
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

  vfs::MemVfs fs_;
  std::unique_ptr<DB> db_;
};

// Vfs decorator slowing appends to .sst files so flushes/compactions take
// long enough for writers to pile up against the memtable queue / L0.
class SlowTableVfs final : public vfs::Vfs {
 public:
  explicit SlowTableVfs(vfs::Vfs& base, int delay_us)
      : base_(base), delay_us_(delay_us) {}

  Status NewWritableFile(const std::string& path, const vfs::OpenOptions& opts,
                         std::unique_ptr<vfs::WritableFile>* file) override {
    std::unique_ptr<vfs::WritableFile> inner;
    LSMIO_RETURN_IF_ERROR(base_.NewWritableFile(path, opts, &inner));
    const bool slow = path.size() > 4 && path.rfind(".sst") == path.size() - 4;
    *file = std::make_unique<Writable>(std::move(inner), slow ? delay_us_ : 0);
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
  const int delay_us_;
};

// With compaction enabled but never triggering (huge l0_compaction_trigger),
// L0 grows deterministically past the soft trigger and the controller paces
// writes — and never converts any of them into a hard L0 stall.
TEST_F(DbBackpressureTest, SlowdownPacesWritesBeforeTheHardStall) {
  Options options = BaseOptions();
  options.disable_compaction = false;
  options.l0_compaction_trigger = 1000;     // keep L0 files around
  options.l0_slowdown_writes_trigger = 4;   // pace early...
  options.l0_stop_writes_trigger = 10000;   // ...and never hard-stall
  // Slow enough that a 1 KiB batch's bucket credit (~15 ms) exceeds the
  // inter-arrival gap on any host (sanitizer builds included), so
  // consecutive paced writes always accrue a real delay.
  options.delayed_write_rate = 64 * KiB;
  Open(options);

  const std::string value(1 * KiB, 'p');
  constexpr int kPuts = 60;
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  const DbStats stats = db_->GetStats();
  EXPECT_GT(stats.slowdown_writes, 0u);
  EXPECT_GT(stats.slowdown_delay_micros, 0u);
  EXPECT_EQ(stats.stall_l0_micros, 0u);
  // Per-operation latency histogram saw every write.
  EXPECT_EQ(stats.write_latency.count(), static_cast<uint64_t>(kPuts));
  EXPECT_GE(stats.write_latency.max(), 0.0);
}

// The paper's checkpoint configuration (disable_compaction) leaves L0
// unbounded: the same workload must never be paced or L0-stalled.
TEST_F(DbBackpressureTest, CompactionDisabledNeverDelaysWrites) {
  Options options = BaseOptions();
  options.disable_compaction = true;
  options.l0_slowdown_writes_trigger = 4;
  Open(options);

  const std::string value(1 * KiB, 'p');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  const DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.slowdown_writes, 0u);
  EXPECT_EQ(stats.slowdown_delay_micros, 0u);
  EXPECT_EQ(stats.stall_l0_micros, 0u);
}

// Memtable-queue stalls land in stall_memtable_micros, and the legacy
// write_stall_micros total is exactly the sum of the per-cause counters.
TEST_F(DbBackpressureTest, MemTableStallsAreAttributedToTheirCause) {
  SlowTableVfs slow(fs_, /*delay_us=*/2000);
  Options options = BaseOptions();
  options.vfs = &slow;
  options.disable_compaction = true;
  options.max_write_buffer_number = 2;  // single flush slot: stalls quickly
  Open(options);

  const std::string value(1 * KiB, 'm');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  const DbStats stats = db_->GetStats();
  EXPECT_GT(stats.stall_memtable_micros, 0u);
  EXPECT_EQ(stats.stall_l0_micros, 0u);
  EXPECT_EQ(stats.write_stall_micros,
            stats.stall_memtable_micros + stats.stall_l0_micros);

  // `slow` (test-body local) dies before the fixture's db_ would: close the
  // DB here so no still-running background job calls through its vtable.
  db_.reset();
}

// Hard L0 stalls (slowdown disabled, tiny stop trigger, slow compactions)
// land in stall_l0_micros, and the sum invariant holds with both causes
// potentially active.
TEST_F(DbBackpressureTest, L0StallsAreAttributedToTheirCause) {
  SlowTableVfs slow(fs_, /*delay_us=*/2000);
  Options options = BaseOptions();
  options.vfs = &slow;
  options.disable_compaction = false;
  // Compaction only becomes eligible at the stop trigger itself, so every
  // fourth flush leaves the writer hard-stalled until the (slow) compaction
  // that relieves it installs.
  options.l0_compaction_trigger = 4;
  options.l0_slowdown_writes_trigger = 0;  // isolate the hard stall
  options.l0_stop_writes_trigger = 4;
  options.max_write_buffer_number = 4;
  Open(options);

  const std::string value(1 * KiB, 'l');
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  const DbStats stats = db_->GetStats();
  EXPECT_GT(stats.stall_l0_micros, 0u);
  EXPECT_EQ(stats.write_stall_micros,
            stats.stall_memtable_micros + stats.stall_l0_micros);
  EXPECT_EQ(stats.slowdown_writes, 0u);

  // The compaction that released the final L0 stall may still be installing
  // (its table writes are the slow part); close the DB before `slow` dies.
  db_.reset();
}

// Thundering-herd regression: with N writers held up by a full memtable
// queue, the stall counters must record the wall-clock window once — not
// once per waiting writer.
TEST_F(DbBackpressureTest, StallTimeDoesNotMultiplyWithWriterCount) {
  SlowTableVfs slow(fs_, /*delay_us=*/3000);
  Options options = BaseOptions();
  options.vfs = &slow;
  options.disable_compaction = true;
  options.max_write_buffer_number = 2;
  Open(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20;
  const std::string value(1 * KiB, 'h');
  std::atomic<int> failures{0};

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "t" + std::to_string(t) + "." + std::to_string(i);
        if (!db_->Put({}, key, value).ok()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const uint64_t elapsed_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  const DbStats stats = db_->GetStats();
  EXPECT_GT(stats.stall_memtable_micros, 0u);
  // Wall-clock accounting: the recorded stall time cannot exceed the whole
  // write phase (plus scheduling slack), let alone approach N x it.
  EXPECT_LT(stats.write_stall_micros, elapsed_micros * 3 / 2);
  // Every write, leader or follower, landed in the latency histogram.
  EXPECT_EQ(stats.write_latency.count(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);

  // Close before the test-local `slow` VFS goes out of scope.
  db_.reset();
}

// Options::bytes_per_sec wraps flush table writes in the shared limiter and
// surfaces its counters through DbStats.
TEST_F(DbBackpressureTest, RateLimiterCountersSurfaceInStats) {
  Options options = BaseOptions();
  options.disable_compaction = true;
  options.bytes_per_sec = 8 * MiB;
  Open(options);

  const std::string value(1 * KiB, 'r');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());

  const DbStats stats = db_->GetStats();
  EXPECT_GT(stats.rate_limited_bytes_flush, 0u);
  EXPECT_EQ(stats.rate_limited_bytes_compaction, 0u);  // nothing compacted
}

// Sharded store: latency histograms merge across shards, the slowdown and
// stall-cause counters aggregate, and per-shard stats stay visible.
TEST_F(DbBackpressureTest, ShardedStatsAggregateBackpressureCounters) {
  Options options = BaseOptions();
  options.num_shards = 4;
  options.disable_compaction = false;
  options.l0_compaction_trigger = 1000;
  options.l0_slowdown_writes_trigger = 2;
  options.l0_stop_writes_trigger = 10000;
  options.delayed_write_rate = 64 * KiB;  // see SlowdownPacesWrites above
  Open(options);

  const std::string value(1 * KiB, 's');
  constexpr int kPuts = 160;
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_TRUE(db_->Put({}, "key" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable(/*wait=*/true).ok());
  std::string out;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db_->Get({}, "key" + std::to_string(i), &out).ok());
  }

  const DbStats stats = db_->GetStats();
  EXPECT_EQ(stats.shards, 4u);
  EXPECT_EQ(stats.write_latency.count(), static_cast<uint64_t>(kPuts));
  EXPECT_EQ(stats.get_latency.count(), 50u);
  EXPECT_GT(stats.slowdown_writes, 0u);
  EXPECT_GT(stats.slowdown_delay_micros, 0u);

  std::vector<DbStats> per_shard;
  db_->GetShardStats(&per_shard);
  ASSERT_EQ(per_shard.size(), 4u);
  uint64_t writes = 0, slowdowns = 0;
  for (const DbStats& s : per_shard) {
    writes += s.write_latency.count();
    slowdowns += s.slowdown_writes;
  }
  EXPECT_EQ(writes, static_cast<uint64_t>(kPuts));
  EXPECT_EQ(slowdowns, stats.slowdown_writes);
}

}  // namespace
}  // namespace lsmio::lsm
