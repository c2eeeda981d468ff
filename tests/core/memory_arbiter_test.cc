// MemoryArbiter (DESIGN.md §15): process-wide budget shared by many stores.
// Covers the arbiter's own victim/accounting policy plus the manager-level
// contracts: per-tenant cache charging survives store close/reopen with
// correct attribution, and an arbiter-forced flush on one store never blocks
// an unrelated store's group-commit leader.
#include "core/memory_arbiter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "core/manager.h"
#include "vfs/mem_vfs.h"

namespace lsmio {
namespace {

// --- arbiter policy unit tests (no engine involved) ---

class ArbiterPolicyTest : public ::testing::Test {
 protected:
  MemoryArbiterOptions SmallBudget() {
    MemoryArbiterOptions options;
    options.write_budget_bytes = 10 * MiB;
    options.flush_watermark = 0.8;  // victims from 8 MiB aggregate
    options.min_victim_bytes = 64 * KiB;
    return options;
  }
};

TEST_F(ArbiterPolicyTest, NoVictimsBelowWatermark) {
  MemoryArbiter arbiter(SmallBudget());
  int flushes = 0;
  const uint64_t a = arbiter.Attach(1, [&] { ++flushes; });
  arbiter.UpdateUsage(a, 7 * MiB, /*wrote=*/true);
  EXPECT_EQ(flushes, 0);
  EXPECT_EQ(arbiter.flush_requests(), 0u);
  EXPECT_EQ(arbiter.TotalUsage(), 7 * MiB);
  arbiter.Detach(a);
}

TEST_F(ArbiterPolicyTest, PicksColdestVictimFirst) {
  MemoryArbiter arbiter(SmallBudget());
  int cold_flushes = 0;
  int hot_flushes = 0;
  const uint64_t cold = arbiter.Attach(1, [&] { ++cold_flushes; });
  const uint64_t hot = arbiter.Attach(2, [&] { ++hot_flushes; });
  // cold writes once, then hot keeps writing: hot has the later tick.
  arbiter.UpdateUsage(cold, 4 * MiB, /*wrote=*/true);
  arbiter.UpdateUsage(hot, 3 * MiB, /*wrote=*/true);
  EXPECT_EQ(cold_flushes, 0);
  // This push crosses the 8 MiB watermark; the cold store is the victim.
  arbiter.UpdateUsage(hot, 5 * MiB, /*wrote=*/true);
  EXPECT_EQ(cold_flushes, 1);
  EXPECT_EQ(hot_flushes, 0);
  EXPECT_EQ(arbiter.flush_requests(), 1u);
  arbiter.Detach(cold);
  arbiter.Detach(hot);
}

TEST_F(ArbiterPolicyTest, ColdFirstBeatsSizeAndPendingReleaseStopsRepicks) {
  MemoryArbiter arbiter(SmallBudget());
  int big_flushes = 0;
  int small_flushes = 0;
  // `small` attaches first, so it is strictly colder than `big`.
  const uint64_t small = arbiter.Attach(1, [&] { ++small_flushes; });
  const uint64_t big = arbiter.Attach(2, [&] { ++big_flushes; });
  arbiter.UpdateUsage(small, 2 * MiB, /*wrote=*/false);
  arbiter.UpdateUsage(big, 7 * MiB, /*wrote=*/false);
  // 9 MiB aggregate crosses the 8 MiB watermark: the COLDER store is the
  // victim even though the other one is 3.5x larger — cold-first dominates
  // size. Its pending 2 MiB release brings usage-net-of-inflight back
  // under the watermark, so no second victim is picked.
  EXPECT_EQ(small_flushes, 1);
  EXPECT_EQ(big_flushes, 0);
  EXPECT_EQ(arbiter.flush_requests(), 1u);

  // The victim's flush lands (its usage collapses): the pick is spent.
  // When pressure returns, the drained store sits below min_victim_bytes
  // and is ineligible, so the big (and only eligible) store is picked
  // even though it is the hottest.
  arbiter.UpdateUsage(small, 16 * KiB, /*wrote=*/false);
  EXPECT_EQ(arbiter.flush_requests(), 1u);  // below watermark again
  arbiter.UpdateUsage(big, 8 * MiB + 512 * KiB, /*wrote=*/true);
  EXPECT_EQ(big_flushes, 1);
  EXPECT_EQ(small_flushes, 1);
  EXPECT_EQ(arbiter.flush_requests(), 2u);
  arbiter.Detach(small);
  arbiter.Detach(big);
}

TEST_F(ArbiterPolicyTest, SliversAreNeverVictims) {
  MemoryArbiterOptions options = SmallBudget();
  options.min_victim_bytes = 1 * MiB;
  MemoryArbiter arbiter(options);
  int flushes = 0;
  std::vector<uint64_t> ids;
  // 18 slivers of 512 KiB = 9 MiB aggregate: over the watermark, but no
  // attachment is individually worth flushing.
  for (int i = 0; i < 18; ++i) {
    ids.push_back(arbiter.Attach(1 + i, [&] { ++flushes; }));
  }
  for (const uint64_t id : ids) {
    arbiter.UpdateUsage(id, 512 * KiB, /*wrote=*/true);
  }
  EXPECT_EQ(flushes, 0);
  EXPECT_GT(arbiter.GlobalPressure(), 0.0);  // pacing still applies
  for (const uint64_t id : ids) arbiter.Detach(id);
}

TEST_F(ArbiterPolicyTest, GlobalPressureRampsWatermarkToBudget) {
  MemoryArbiter arbiter(SmallBudget());
  const uint64_t a = arbiter.Attach(1, [] {});
  arbiter.UpdateUsage(a, 8 * MiB, /*wrote=*/false);
  EXPECT_EQ(arbiter.GlobalPressure(), 0.0);  // at the watermark: no pacing yet
  arbiter.UpdateUsage(a, 9 * MiB, /*wrote=*/false);
  EXPECT_NEAR(arbiter.GlobalPressure(), 0.5, 1e-9);
  arbiter.UpdateUsage(a, 10 * MiB, /*wrote=*/false);
  EXPECT_EQ(arbiter.GlobalPressure(), 1.0);
  arbiter.UpdateUsage(a, 2 * MiB, /*wrote=*/false);
  EXPECT_EQ(arbiter.GlobalPressure(), 0.0);
  arbiter.Detach(a);
}

TEST_F(ArbiterPolicyTest, DetachReleasesUsageAndResidencyTracksTenants) {
  MemoryArbiter arbiter(SmallBudget());
  const uint64_t t1 = arbiter.RegisterTenant("/store/a");
  const uint64_t t2 = arbiter.RegisterTenant("/store/b");
  EXPECT_NE(t1, 0u);
  EXPECT_NE(t1, t2);
  const uint64_t a1 = arbiter.Attach(t1, [] {});
  const uint64_t a2 = arbiter.Attach(t1, [] {});  // e.g. two shards
  const uint64_t b = arbiter.Attach(t2, [] {});
  arbiter.UpdateUsage(a1, 1 * MiB, /*wrote=*/true);
  arbiter.UpdateUsage(a2, 2 * MiB, /*wrote=*/true);
  arbiter.UpdateUsage(b, 4 * MiB, /*wrote=*/true);

  TenantResidency r1 = arbiter.Residency(t1);
  EXPECT_EQ(r1.name, "/store/a");
  EXPECT_EQ(r1.memtable_bytes, 3 * MiB);
  EXPECT_EQ(r1.attachments, 2);
  EXPECT_EQ(arbiter.TotalUsage(), 7 * MiB);

  const std::vector<TenantResidency> all = arbiter.AllResidency();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].memtable_bytes, 4 * MiB);

  arbiter.Detach(a1);
  arbiter.Detach(a2);
  EXPECT_EQ(arbiter.TotalUsage(), 4 * MiB);
  EXPECT_EQ(arbiter.Residency(t1).attachments, 0);
  arbiter.UnregisterTenant(t1);
  arbiter.Detach(b);
  arbiter.UnregisterTenant(t2);
}

// --- manager-level integration ---

class ArbiterManagerTest : public ::testing::Test {
 protected:
  LsmioOptions Options() {
    LsmioOptions options;
    options.vfs = &fs_;
    options.memory_arbiter = &arbiter_;
    options.disable_cache = false;  // exercise the shared cache
    return options;
  }

  vfs::MemVfs fs_;
  MemoryArbiter arbiter_;
};

TEST_F(ArbiterManagerTest, CacheChargingSurvivesCloseAndReopen) {
  std::unique_ptr<Manager> manager;
  ASSERT_TRUE(Manager::Open(Options(), "/tenant", &manager).ok());
  const uint64_t first_id = manager->memory_tenant_id();
  ASSERT_NE(first_id, 0u);

  // Persist a table, then read it back so blocks land in the shared cache
  // charged to this tenant.
  for (int i = 0; i < 200; ++i) {
    const std::string k = "key" + std::to_string(i);
    ASSERT_TRUE(manager->Put(k, std::string(512, 'v')).ok());
  }
  ASSERT_TRUE(manager->WriteBarrier(BarrierMode::kSync).ok());
  std::string value;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(manager->Get("key" + std::to_string(i), &value).ok());
  }
  EXPECT_GT(arbiter_.Residency(first_id).cache_bytes, 0u);
  EXPECT_GT(manager->engine_stats().tenant_cache_bytes, 0u);

  // Close: the tenant unregisters and its shared-cache charge is purged.
  manager.reset();
  EXPECT_EQ(arbiter_.shared_cache()->OwnerCharge(first_id), 0u);
  EXPECT_EQ(arbiter_.TotalUsage(), 0u);  // attachments detached

  // Reopen: a fresh tenant id; reads re-charge under the new id only.
  ASSERT_TRUE(Manager::Open(Options(), "/tenant", &manager).ok());
  const uint64_t second_id = manager->memory_tenant_id();
  ASSERT_NE(second_id, 0u);
  EXPECT_NE(second_id, first_id);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(manager->Get("key" + std::to_string(i), &value).ok());
  }
  EXPECT_GT(arbiter_.Residency(second_id).cache_bytes, 0u);
  EXPECT_EQ(arbiter_.shared_cache()->OwnerCharge(first_id), 0u);
  manager.reset();
  EXPECT_EQ(arbiter_.shared_cache()->OwnerCharge(second_id), 0u);
}

TEST_F(ArbiterManagerTest, ForcedFlushOnColdStoreDoesNotBlockHotStore) {
  // Tight budget: the hot store's writes push aggregate usage over the
  // watermark, forcing flushes of the cold store. The cold store's forced
  // flush must never show up as a write stall on the hot store.
  MemoryArbiterOptions tight;
  tight.write_budget_bytes = 4 * MiB;
  tight.flush_watermark = 0.5;
  tight.min_victim_bytes = 16 * KiB;
  // No per-memtable cap below the budget: the cold store never flushes
  // itself, and the hot store's memtable alone takes the aggregate over
  // the watermark, however fast the hot store's own flushes run.
  tight.max_memtable_bytes = tight.write_budget_bytes;
  MemoryArbiter arbiter(tight);

  LsmioOptions options;
  options.vfs = &fs_;
  options.memory_arbiter = &arbiter;
  // Give the hot store a soft-pacing zone (graduated backpressure) so its
  // own flush lag paces it instead of hard-stalling: any stall observed
  // below would then be attributable to the arbiter.
  options.disable_compaction = false;
  options.max_write_buffer_number = 4;

  std::unique_ptr<Manager> cold;
  std::unique_ptr<Manager> hot;
  ASSERT_TRUE(Manager::Open(options, "/cold", &cold).ok());
  ASSERT_TRUE(Manager::Open(options, "/hot", &hot).ok());

  // Park ~1 MiB in the cold store, then go idle.
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(cold->Put("c" + std::to_string(i), std::string(4096, 'c')).ok());
  }

  // Hammer the hot store well past the 2 MiB watermark.
  for (int i = 0; i < 1024; ++i) {
    ASSERT_TRUE(hot->Put("h" + std::to_string(i), std::string(4096, 'h')).ok());
  }

  // The cold store carries out the victim request on its own background
  // pool. Let it, or the cold store's barrier below would flush the
  // memtable first and leave the request nothing to switch.
  for (int i = 0; i < 10000 && cold->engine_stats().arbiter_forced_flushes == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The arbiter picked at least one victim, and the cold store took at
  // least one forced flush (it is the coldest eligible attachment).
  EXPECT_GE(arbiter.flush_requests(), 1u);
  ASSERT_TRUE(cold->WriteBarrier(BarrierMode::kSync).ok());
  ASSERT_TRUE(hot->WriteBarrier(BarrierMode::kSync).ok());
  EXPECT_GE(cold->engine_stats().arbiter_forced_flushes +
                hot->engine_stats().arbiter_forced_flushes,
            1u);

  // The hot store's group-commit leader was never parked on the cold
  // store's flush: no hard write stalls on the hot store.
  EXPECT_EQ(hot->engine_stats().write_stall_micros, 0u);
  EXPECT_TRUE(hot->Health().ok());
  EXPECT_TRUE(cold->Health().ok());

  // Residency surfaces the forced-flush attribution.
  uint64_t total_forced = 0;
  for (const TenantResidency& r : arbiter.AllResidency()) {
    total_forced += r.arbiter_forced_flushes;
  }
  EXPECT_EQ(total_forced, arbiter.flush_requests());
}

// Vfs decorator that can pause an append: after HoldNextAppend(), the next
// append to a file whose name ends in `suffix` blocks until Release(). On
// ".log" it parks a write group past its admission check (a group-commit
// leader appends its WAL record after admitting the group, with the DB
// mutex released); on ".sst" it parks a flush on the background thread.
class HoldAppendVfs final : public vfs::Vfs {
 public:
  HoldAppendVfs(vfs::Vfs& base, std::string suffix)
      : base_(base), suffix_(std::move(suffix)) {}

  void HoldNextAppend() { hold_.store(true); }
  void WaitUntilHeld() const {
    while (!held_.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  void Release() { hold_.store(false); }

  Status NewWritableFile(const std::string& path, const vfs::OpenOptions& opts,
                         std::unique_ptr<vfs::WritableFile>* file) override {
    std::unique_ptr<vfs::WritableFile> inner;
    LSMIO_RETURN_IF_ERROR(base_.NewWritableFile(path, opts, &inner));
    const bool held = path.size() > suffix_.size() &&
                      path.compare(path.size() - suffix_.size(), suffix_.size(), suffix_) == 0;
    *file = held ? std::make_unique<Held>(this, std::move(inner)) : std::move(inner);
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
    return base_.ListDir(path, out);
  }

 private:
  class Held final : public vfs::WritableFile {
   public:
    Held(HoldAppendVfs* owner, std::unique_ptr<vfs::WritableFile> inner)
        : owner_(owner), inner_(std::move(inner)) {}
    Status Append(const Slice& data) override {
      if (owner_->hold_.load()) {
        owner_->held_.store(true);
        while (owner_->hold_.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      return inner_->Append(data);
    }
    Status Flush() override { return inner_->Flush(); }
    Status Sync() override { return inner_->Sync(); }
    Status Close() override { return inner_->Close(); }
    [[nodiscard]] uint64_t Size() const override { return inner_->Size(); }

   private:
    HoldAppendVfs* owner_;
    std::unique_ptr<vfs::WritableFile> inner_;
  };

  vfs::Vfs& base_;
  const std::string suffix_;
  std::atomic<bool> hold_{false};
  std::atomic<bool> held_{false};
};

// A victim request can reach a store whose write group is already past the
// admission check that honours such requests. With no writer queued behind
// the group, the store must still switch its memtable once the group
// completes, not sit on the memory the arbiter counts as being released.
TEST_F(ArbiterManagerTest, VictimRequestDuringWriteGroupIsCarriedOut) {
  MemoryArbiterOptions tight;
  tight.write_budget_bytes = 4 * MiB;
  tight.flush_watermark = 0.5;
  tight.min_victim_bytes = 16 * KiB;
  MemoryArbiter arbiter(tight);

  HoldAppendVfs fs(fs_, ".log");
  LsmioOptions options;
  options.vfs = &fs;
  options.memory_arbiter = &arbiter;
  options.disable_wal = false;
  std::unique_ptr<Manager> store;
  ASSERT_TRUE(Manager::Open(options, "/victim", &store).ok());
  ASSERT_TRUE(store->Put("parked", std::string(64 * KiB, 'p')).ok());

  fs.HoldNextAppend();
  std::thread writer([&] { EXPECT_TRUE(store->Put("last", "v").ok()); });
  fs.WaitUntilHeld();

  // Another tenant takes the aggregate over the watermark; the store is the
  // coldest eligible attachment, so it is picked first.
  const uint64_t other = arbiter.Attach(arbiter.RegisterTenant("/other"), [] {});
  arbiter.UpdateUsage(other, 3 * MiB, /*wrote=*/true);
  EXPECT_EQ(arbiter.Residency(store->memory_tenant_id()).arbiter_forced_flushes, 1u);
  // Let the store's background call find the write group in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fs.Release();
  writer.join();

  for (int i = 0; i < 10000 && store->engine_stats().arbiter_forced_flushes == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(store->engine_stats().arbiter_forced_flushes, 1u);
  store.reset();
  arbiter.Detach(other);
}

// A write barrier that switches the memtable between the arbiter's pick
// and the queued ArbiterFlushCall serves the request: the memory the pick
// counted is flushed. The request must not outlive that switch, or the
// next write group forces a flush of a memtable holding one batch.
TEST_F(ArbiterManagerTest, BarrierSwitchServesPendingVictimRequest) {
  MemoryArbiterOptions tight;
  tight.write_budget_bytes = 4 * MiB;
  tight.flush_watermark = 0.5;
  tight.min_victim_bytes = 16 * KiB;
  MemoryArbiter arbiter(tight);

  HoldAppendVfs fs(fs_, ".sst");
  LsmioOptions options;
  options.vfs = &fs;
  options.memory_arbiter = &arbiter;
  options.background_threads = 1;  // a parked flush delays every queued task
  options.max_write_buffer_number = 3;
  std::unique_ptr<Manager> store;
  ASSERT_TRUE(Manager::Open(options, "/barrier", &store).ok());

  // Park a flush on the store's only background thread.
  ASSERT_TRUE(store->Put("flushing", std::string(64 * KiB, 'f')).ok());
  fs.HoldNextAppend();
  ASSERT_TRUE(store->WriteBarrier(BarrierMode::kAsync).ok());
  fs.WaitUntilHeld();
  ASSERT_TRUE(store->Put("active", std::string(64 * KiB, 'a')).ok());

  // Another tenant takes the aggregate over the watermark and the store is
  // picked; its ArbiterFlushCall queues behind the parked flush.
  const uint64_t other = arbiter.Attach(arbiter.RegisterTenant("/other"), [] {});
  arbiter.UpdateUsage(other, 3 * MiB, /*wrote=*/true);
  EXPECT_EQ(arbiter.Residency(store->memory_tenant_id()).arbiter_forced_flushes, 1u);

  // The barrier switches the picked memtable before that call runs.
  ASSERT_TRUE(store->WriteBarrier(BarrierMode::kAsync).ok());
  fs.Release();
  ASSERT_TRUE(store->WriteBarrier(BarrierMode::kSync).ok());
  arbiter.UpdateUsage(other, 0, /*wrote=*/false);

  // Nothing is over budget, so the next writes force nothing. The second
  // write group is where a stale request is honoured at the latest.
  const lsm::DbStats before = store->engine_stats();
  ASSERT_TRUE(store->Put("next", "v").ok());
  ASSERT_TRUE(store->Put("after", "v").ok());
  const lsm::DbStats after = store->engine_stats();
  EXPECT_EQ(after.arbiter_forced_flushes, before.arbiter_forced_flushes);
  EXPECT_EQ(after.memtable_flushes, before.memtable_flushes);
  EXPECT_EQ(after.flush_queue_depth, 0u);
  store.reset();
  arbiter.Detach(other);
}

// The store is picked while its only memory is a memtable already queued
// for flush, so the queued ArbiterFlushCall finds no writer and an empty
// active memtable. There is nothing to switch: the request is dropped. Left
// pending, it would force a later write group to flush a memtable holding
// one put.
TEST_F(ArbiterManagerTest, RequestOnEmptyMemTableIsDropped) {
  MemoryArbiterOptions tight;
  tight.write_budget_bytes = 4 * MiB;
  tight.flush_watermark = 0.5;
  tight.min_victim_bytes = 16 * KiB;
  MemoryArbiter arbiter(tight);

  HoldAppendVfs fs(fs_, ".sst");
  LsmioOptions options;
  options.vfs = &fs;
  options.memory_arbiter = &arbiter;
  options.background_threads = 1;  // the call queues behind the parked flush
  std::unique_ptr<Manager> store;
  ASSERT_TRUE(Manager::Open(options, "/empty", &store).ok());

  ASSERT_TRUE(store->Put("flushing", std::string(64 * KiB, 'f')).ok());
  fs.HoldNextAppend();
  ASSERT_TRUE(store->WriteBarrier(BarrierMode::kAsync).ok());
  fs.WaitUntilHeld();

  const uint64_t other = arbiter.Attach(arbiter.RegisterTenant("/other"), [] {});
  arbiter.UpdateUsage(other, 3 * MiB, /*wrote=*/true);
  EXPECT_EQ(arbiter.Residency(store->memory_tenant_id()).arbiter_forced_flushes, 1u);
  fs.Release();
  ASSERT_TRUE(store->WriteBarrier(BarrierMode::kSync).ok());
  arbiter.UpdateUsage(other, 0, /*wrote=*/false);
  // The flush is done; let the call queued behind it run before writing.
  // Nothing the store exposes shows that the call has run, so this waits
  // on time: a put that reached the front first would find its own entry
  // in the memtable and serve the request, and this test would fail.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const lsm::DbStats before = store->engine_stats();
  for (const char* key : {"a", "b", "c"}) ASSERT_TRUE(store->Put(key, "v").ok());
  const lsm::DbStats after = store->engine_stats();
  EXPECT_EQ(after.arbiter_forced_flushes, before.arbiter_forced_flushes);
  EXPECT_EQ(after.memtable_flushes, before.memtable_flushes);
  EXPECT_EQ(after.flush_queue_depth, 0u);
  store.reset();
  arbiter.Detach(other);
}

// The store is picked while a write group is parked in its WAL append and
// another writer waits behind it. The request is served once, when the
// parked group finishes, and the next group does not switch again.
TEST_F(ArbiterManagerTest, VictimRequestWithQueuedWriterSwitchesOnce) {
  MemoryArbiterOptions tight;
  tight.write_budget_bytes = 4 * MiB;
  tight.flush_watermark = 0.5;
  tight.min_victim_bytes = 16 * KiB;
  MemoryArbiter arbiter(tight);

  HoldAppendVfs fs(fs_, ".log");
  LsmioOptions options;
  options.vfs = &fs;
  options.memory_arbiter = &arbiter;
  options.disable_wal = false;
  std::unique_ptr<Manager> store;
  ASSERT_TRUE(Manager::Open(options, "/queued", &store).ok());
  ASSERT_TRUE(store->Put("parked", std::string(64 * KiB, 'p')).ok());

  fs.HoldNextAppend();
  std::thread leader([&] { EXPECT_TRUE(store->Put("first", "v").ok()); });
  fs.WaitUntilHeld();
  std::thread follower([&] { EXPECT_TRUE(store->Put("second", "v").ok()); });
  // Let the follower queue behind the parked group.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const uint64_t other = arbiter.Attach(arbiter.RegisterTenant("/other"), [] {});
  arbiter.UpdateUsage(other, 3 * MiB, /*wrote=*/true);
  EXPECT_EQ(arbiter.Residency(store->memory_tenant_id()).arbiter_forced_flushes, 1u);
  // Let the store's background call find the writers in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  arbiter.UpdateUsage(other, 0, /*wrote=*/false);
  fs.Release();
  leader.join();
  follower.join();

  for (int i = 0; i < 10000 && store->engine_stats().memtable_flushes == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const lsm::DbStats stats = store->engine_stats();
  EXPECT_EQ(stats.arbiter_forced_flushes, 1u);
  EXPECT_EQ(stats.memtable_flushes, 1u);
  EXPECT_EQ(stats.flush_queue_depth, 0u);
  std::string value;
  EXPECT_TRUE(store->Get("second", &value).ok());
  store.reset();
  arbiter.Detach(other);
}

TEST_F(ArbiterManagerTest, PoolGaugesSurfaceThroughStats) {
  std::unique_ptr<Manager> manager;
  ASSERT_TRUE(Manager::Open(Options(), "/gauges", &manager).ok());
  ASSERT_TRUE(manager->Put("k", std::string(64 * 1024, 'v')).ok());
  const lsm::DbStats stats = manager->engine_stats();
  EXPECT_GT(stats.memtable_bytes, 0u);
  EXPECT_GT(stats.write_pool_usage_bytes, 0u);
  EXPECT_EQ(stats.write_pool_budget_bytes, MemoryArbiterOptions{}.write_budget_bytes);
}

TEST_F(ArbiterManagerTest, ShardedStoreAttachesPerShard) {
  LsmioOptions options = Options();
  options.num_shards = 4;
  std::unique_ptr<Manager> manager;
  ASSERT_TRUE(Manager::Open(options, "/sharded", &manager).ok());
  const uint64_t tid = manager->memory_tenant_id();
  EXPECT_EQ(arbiter_.Residency(tid).attachments, 4);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(manager->Put("k" + std::to_string(i), std::string(1024, 'v')).ok());
  }
  EXPECT_GT(arbiter_.Residency(tid).memtable_bytes, 0u);

  // Every shard charges the shared cache to the one tenant, so the store's
  // cache bytes are the tenant's charge, not four times it.
  ASSERT_TRUE(manager->WriteBarrier(BarrierMode::kSync).ok());
  std::string value;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(manager->Get("k" + std::to_string(i), &value).ok());
  }
  EXPECT_GT(arbiter_.Residency(tid).cache_bytes, 0u);
  EXPECT_EQ(manager->engine_stats().tenant_cache_bytes, arbiter_.Residency(tid).cache_bytes);
  manager.reset();
  EXPECT_EQ(arbiter_.Residency(tid).attachments, 0);
  EXPECT_EQ(arbiter_.TotalUsage(), 0u);
}

}  // namespace
}  // namespace lsmio
