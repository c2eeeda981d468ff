// Crash-consistency under fault injection: write through a FaultVfs, kill
// the process at a randomized fault point, simulate power loss (unsynced
// data reverts), reopen, and verify the durability contract:
//
//   * every acked write — a sync write that returned OK with the WAL on, or
//     any write sitting below a successful write barrier — survives with
//     its value;
//   * an unacked write may survive or vanish, but whatever value a key has
//     must be one the caller legitimately attempted;
//   * the store itself never corrupts: reopen succeeds, a full iteration
//     sweep sees only known keys, and new writes work.
//
// The iteration count defaults to 200 (the CI soak); override with
// LSMIO_CRASH_ITERS for quick local runs or longer soaks. LSMIO_SHARDS=N
// runs the randomized soak against an N-way sharded store (per-shard WALs
// and manifests under shard-NNN/ all see the same fault model); a smaller
// always-on sharded soak runs regardless. LSMIO_VALUE_LOG=1 runs the main
// soak with WAL-time key/value separation on (blob segments join the fault
// schedule); a smaller always-on value-log soak runs regardless.
// LSMIO_WAL=0 runs the soaks with the WAL off, the paper's checkpoint mode:
// a sync write acks nothing and only a successful barrier acks; a smaller
// always-on WAL-off soak runs regardless.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "lsm/db.h"
#include "vfs/fault_vfs.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

int IterationsFromEnv() {
  const char* env = std::getenv("LSMIO_CRASH_ITERS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

int ShardsFromEnv() {
  const char* env = std::getenv("LSMIO_SHARDS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1;
}

// Separation threshold for the main soak: LSMIO_VALUE_LOG=1 turns the
// value log on with a 64-byte threshold, so the 16-256 byte soak values
// split between inline and separated storage.
uint64_t ValueLogThresholdFromEnv() {
  const char* env = std::getenv("LSMIO_VALUE_LOG");
  return env != nullptr && std::atoi(env) > 0 ? 64 : 0;
}

// LSMIO_WAL=0 turns the WAL off.
bool WalFromEnv() {
  const char* env = std::getenv("LSMIO_WAL");
  return env == nullptr || std::atoi(env) != 0;
}

// Values are >= 16 random bytes, so a 1-byte sentinel can never collide.
const std::string kDeleted = "\xDE";

struct KeyHistory {
  std::vector<std::string> values;  // every attempted value, oldest first
  // Index below which recovery must not regress: the newest value covered
  // by an ack (sync write OK / write barrier OK). SIZE_MAX = never acked.
  size_t acked = SIZE_MAX;
};

vfs::FaultPoint RandomFaultPoint(Rng& rng, bool include_wal, bool include_blob) {
  vfs::FaultPoint point;
  switch (rng.Uniform(4)) {
    case 0: point.kind = vfs::FaultKind::kFailOp; break;
    case 1: point.kind = vfs::FaultKind::kShortWrite; break;
    case 2: point.kind = vfs::FaultKind::kTornWrite; break;
    default: point.kind = vfs::FaultKind::kSyncFailure; break;
  }
  // kWalFile only joins the draw when the WAL is on, and kBlobFile when the
  // value log is on; otherwise a fault point on a file class the store never
  // writes would never fire and the iteration would run fault-free.
  static constexpr unsigned kFileChoices[] = {
      vfs::kWalFile, vfs::kTableFile, vfs::kManifestFile, vfs::kAnyFile,
      vfs::kBlobFile};
  const unsigned first = include_wal ? 0 : 1;
  point.file_classes = kFileChoices[first + rng.Uniform((include_blob ? 5 : 4) - first)];
  static constexpr unsigned kOpChoices[] = {
      vfs::kAppendOp, vfs::kSyncOp, vfs::kCreateOp, vfs::kAnyWriteOp};
  point.ops = kOpChoices[rng.Uniform(4)];
  point.countdown = static_cast<int>(rng.Range(1, 150));
  return point;
}

void RunCrashIteration(uint64_t seed, int num_shards,
                       uint64_t value_log_threshold, bool wal) {
  Rng rng(seed);
  vfs::MemVfs base;
  vfs::FaultVfs fs(base);

  Options options;
  options.vfs = &fs;
  options.num_shards = num_shards;
  options.write_buffer_size = 8 * KiB;  // small enough to force flushes
  options.disable_compaction = rng.Bernoulli(0.5);
  options.disable_wal = !wal;
  options.value_log_threshold = value_log_threshold;
  if (value_log_threshold > 0) {
    options.value_log_segment_size = 4 * KiB;  // force rotation mid-run
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok()) << "seed " << seed;

  std::map<std::string, KeyHistory> model;
  fs.Arm(RandomFaultPoint(rng, wal, value_log_threshold > 0));

  const int kOps = 80;
  const int kKeySpace = 16;
  for (int i = 0; i < kOps; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(kKeySpace));
    const bool is_delete = rng.Bernoulli(0.1);
    std::string value;
    if (!is_delete) {
      value.resize(16 + rng.Uniform(240));
      rng.Fill(value.data(), value.size());
    }
    const bool sync = rng.Bernoulli(0.4);

    // Record the attempt before issuing it: a failed write may still leave
    // a durable WAL record behind (e.g. append OK, fsync torn), so its
    // value is legitimate on recovery even though it was never acked.
    KeyHistory& h = model[key];
    h.values.push_back(is_delete ? kDeleted : value);

    WriteOptions wo;
    wo.sync = sync;
    const Status s =
        is_delete ? db->Delete(wo, key) : db->Put(wo, key, value);
    if (!s.ok()) break;  // the engine latched read-only; stop writing
    if (sync && wal) h.acked = h.values.size() - 1;

    if (rng.Bernoulli(0.05)) {
      if (!db->FlushMemTable(true).ok()) break;
      // A successful write barrier acks everything written so far.
      for (auto& [k, hist] : model) hist.acked = hist.values.size() - 1;
    }
  }

  // Power loss: drop the process state, then revert every file to its
  // synced prefix plus a random sliver of the unsynced tail.
  db.reset();
  ASSERT_TRUE(fs.DropUnsyncedData(seed ^ 0x9e3779b97f4a7c15ULL).ok());

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok())
      << "reopen after crash failed, seed " << seed;

  // Acked writes must survive; every surviving value must be legitimate.
  for (const auto& [key, h] : model) {
    std::string value;
    const Status s = db->Get({}, key, &value);
    ASSERT_TRUE(s.ok() || s.IsNotFound())
        << "seed " << seed << " key " << key << ": " << s.ToString();

    const size_t lo = h.acked == SIZE_MAX ? 0 : h.acked;
    bool acceptable = false;
    if (s.IsNotFound()) {
      if (h.acked == SIZE_MAX) {
        acceptable = true;  // never acked: allowed to vanish entirely
      } else {
        for (size_t i = lo; i < h.values.size(); ++i) {
          if (h.values[i] == kDeleted) acceptable = true;
        }
      }
    } else {
      for (size_t i = lo; i < h.values.size(); ++i) {
        if (h.values[i] != kDeleted && h.values[i] == value) acceptable = true;
      }
    }
    int stale_match = -1;
    if (!acceptable && s.ok()) {
      for (size_t i = 0; i < h.values.size(); ++i) {
        if (h.values[i] == value) stale_match = static_cast<int>(i);
      }
    }
    ASSERT_TRUE(acceptable)
        << "seed " << seed << " key " << key << " acked_index="
        << (h.acked == SIZE_MAX ? -1 : static_cast<long>(h.acked))
        << " attempts=" << h.values.size()
        << (s.IsNotFound()
                ? " lost an acked write"
                : (stale_match >= 0
                       ? " regressed to stale attempt " + std::to_string(stale_match)
                       : " holds a value never written"));
  }

  // Full sweep: iteration must complete cleanly and see only known keys.
  std::unique_ptr<Iterator> it(db->NewIterator({}));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ASSERT_TRUE(model.count(it->key().ToString()) == 1)
        << "seed " << seed << " unknown key " << it->key().ToString();
  }
  ASSERT_TRUE(it->status().ok()) << "seed " << seed << ": " << it->status().ToString();
  it.reset();

  // The reopened store is healthy and writable again.
  ASSERT_TRUE(db->HealthStatus().ok()) << "seed " << seed;
  WriteOptions wo;
  wo.sync = true;
  ASSERT_TRUE(db->Put(wo, "post-recovery", "writable").ok()) << "seed " << seed;
}

TEST(CrashRecoveryTest, RandomizedFaultPointsPreserveAckedWrites) {
  const int iters = IterationsFromEnv();
  const int shards = ShardsFromEnv();
  const uint64_t threshold = ValueLogThresholdFromEnv();
  const bool wal = WalFromEnv();
  for (int i = 0; i < iters; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        RunCrashIteration(1000 + static_cast<uint64_t>(i), shards, threshold, wal))
        << "iteration " << i << " shards " << shards
        << " value_log_threshold " << threshold << " wal " << wal;
  }
}

// Always-on sharded coverage: a shorter soak against a 4-way sharded store
// (the CI shards leg runs the full count via LSMIO_SHARDS=4). A distinct
// seed base keeps the fault schedules disjoint from the main soak.
TEST(CrashRecoveryTest, ShardedStoreSurvivesRandomizedFaultPoints) {
  if (ShardsFromEnv() > 1) {
    GTEST_SKIP() << "main soak already running sharded via LSMIO_SHARDS";
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        RunCrashIteration(77000 + static_cast<uint64_t>(i), /*num_shards=*/4,
                          ValueLogThresholdFromEnv(), WalFromEnv()))
        << "iteration " << i;
  }
}

// Always-on value-log coverage: a shorter soak with separation enabled and
// blob segments in the fault schedule (the CI value-log leg runs the full
// count via LSMIO_VALUE_LOG=1). A distinct seed base keeps the fault
// schedules disjoint from the other soaks.
TEST(CrashRecoveryTest, ValueLogStoreSurvivesRandomizedFaultPoints) {
  if (ValueLogThresholdFromEnv() > 0) {
    GTEST_SKIP() << "main soak already running with LSMIO_VALUE_LOG";
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        RunCrashIteration(88000 + static_cast<uint64_t>(i), /*num_shards=*/1,
                          /*value_log_threshold=*/64, WalFromEnv()))
        << "iteration " << i;
  }
}

// Always-on WAL-off coverage: a shorter soak of the paper's checkpoint mode,
// where only a successful write barrier acks (the CI WAL-off step runs the
// full count via LSMIO_WAL=0). A distinct seed base keeps the fault
// schedules disjoint from the other soaks.
TEST(CrashRecoveryTest, WalOffStoreSurvivesRandomizedFaultPoints) {
  if (!WalFromEnv()) {
    GTEST_SKIP() << "main soak already running WAL-off via LSMIO_WAL";
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_NO_FATAL_FAILURE(
        RunCrashIteration(99000 + static_cast<uint64_t>(i), ShardsFromEnv(),
                          ValueLogThresholdFromEnv(), /*wal=*/false))
        << "iteration " << i;
  }
}

TEST(CrashRecoveryTest, StickyReadOnlyModeSurfacesTypedStatus) {
  vfs::MemVfs base;
  vfs::FaultVfs fs(base);
  Options options;
  options.vfs = &fs;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions sync_write;
  sync_write.sync = true;
  ASSERT_TRUE(db->Put(sync_write, "before", "durable").ok());
  ASSERT_TRUE(db->HealthStatus().ok());

  vfs::FaultPoint point;
  point.file_classes = vfs::kWalFile;
  point.ops = vfs::kAppendOp;
  fs.Arm(point);

  // The failing write surfaces the raw I/O error...
  EXPECT_TRUE(db->Put({}, "failing", "x").IsIoError());
  // ...and everything after it gets the typed sticky status.
  EXPECT_TRUE(db->Put({}, "after", "y").IsReadOnly());
  EXPECT_TRUE(db->Delete({}, "before").IsReadOnly());
  EXPECT_TRUE(db->HealthStatus().IsReadOnly());
  EXPECT_FALSE(db->FlushMemTable(true).ok());
  EXPECT_EQ(db->GetStats().read_only_mode, 1U);

  // Reads keep serving while the engine is read-only.
  std::string value;
  EXPECT_TRUE(db->Get({}, "before", &value).ok());
  EXPECT_EQ(value, "durable");

  // Reopening clears the condition.
  db.reset();
  ASSERT_TRUE(fs.DropUnsyncedData(/*seed=*/42).ok());
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  EXPECT_TRUE(db->HealthStatus().ok());
  EXPECT_EQ(db->GetStats().read_only_mode, 0U);
  EXPECT_TRUE(db->Put(sync_write, "after", "works").ok());
  EXPECT_TRUE(db->Get({}, "before", &value).ok());
  EXPECT_EQ(value, "durable");
}

TEST(CrashRecoveryTest, OrphanedSstFromCrashedFlushIsTolerated) {
  vfs::MemVfs base;
  vfs::FaultVfs fs(base);
  Options options;
  options.vfs = &fs;
  options.write_buffer_size = 8 * KiB;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions sync_write;
  sync_write.sync = true;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        db->Put(sync_write, "k" + std::to_string(i), std::string(100, 'v')).ok());
  }

  // Crash mid-flush: the table file is half-written when the disk goes away.
  vfs::FaultPoint point;
  point.kind = vfs::FaultKind::kShortWrite;
  point.file_classes = vfs::kTableFile;
  point.ops = vfs::kAppendOp;
  fs.Arm(point);
  EXPECT_FALSE(db->FlushMemTable(true).ok());
  db.reset();
  ASSERT_TRUE(fs.DropUnsyncedData(/*seed=*/7).ok());

  // The orphaned partial .sst must not break recovery: the manifest never
  // referenced it, and the WAL still covers every acked write.
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 20; ++i) {
    std::string value;
    ASSERT_TRUE(db->Get({}, "k" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, std::string(100, 'v'));
  }
}

TEST(CrashRecoveryTest, PreexistingOrphanSstIsSweptOnOpen) {
  vfs::MemVfs base;
  vfs::FaultVfs fs(base);
  Options options;
  options.vfs = &fs;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions sync_write;
  sync_write.sync = true;
  ASSERT_TRUE(db->Put(sync_write, "live", "data").ok());
  ASSERT_TRUE(db->FlushMemTable(true).ok());
  db.reset();

  // Drop a garbage table file a crashed flush could have left behind.
  ASSERT_TRUE(vfs::WriteStringToFile(base, "/db/000999.sst",
                                     "not a real sstable").ok());

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get({}, "live", &value).ok());
  EXPECT_EQ(value, "data");
  // The orphan is not in the manifest, so the open-time sweep removed it.
  EXPECT_FALSE(base.FileExists("/db/000999.sst"));
}

}  // namespace
}  // namespace lsmio::lsm
