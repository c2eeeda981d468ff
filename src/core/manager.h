// LSMIO Manager (paper §3.1.4): the external K/V API. Owns the Local Store,
// integrates MPI (collective routing of puts to owner ranks — the paper's
// future-work mode), provides typed puts, performance counters, and the
// factory used by applications.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/synchronization.h"
#include "common/slice.h"
#include "core/store.h"

namespace lsmio {

/// Manager-level performance counters (paper §3.1.4).
struct ManagerCounters {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t appends = 0;
  uint64_t dels = 0;
  uint64_t write_barriers = 0;
  uint64_t bytes_put = 0;
  uint64_t bytes_got = 0;
  uint64_t remote_puts = 0;  // routed to another rank (collective mode)
  uint64_t multigets = 0;       // GetBatch calls
  uint64_t multiget_keys = 0;   // keys looked up through GetBatch
  Histogram put_latency_us;
};

class Manager {
 public:
  /// Factory (paper: "an optional factory method to manage the object
  /// instance for the caller"): opens the store at `path`.
  static Status Open(const LsmioOptions& options, const std::string& path,
                     std::unique_ptr<Manager>* manager);

  ~Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // --- K/V API (paper Table 2) ---

  /// Always synchronous. The overload taking lsm::ReadOptions exposes the
  /// engine read knobs (fill_cache, verify_checksums, readahead, snapshot).
  Status Get(const Slice& key, std::string* value);
  Status Get(const lsm::ReadOptions& read_options, const Slice& key,
             std::string* value);

  /// Batched point lookup (engine MultiGet): one consistent read point for
  /// the whole batch, per-key results in (*values)[i] / (*statuses)[i].
  Status GetBatch(std::span<const Slice> keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses);
  Status GetBatch(const lsm::ReadOptions& read_options,
                  std::span<const Slice> keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses);

  /// Local or remote (collective mode) upsert.
  Status Put(const Slice& key, const Slice& value);

  /// Typed puts (the ADIOS2 API "provides a richer API ... additional data
  /// types"; these serialize little-endian fixed-width).
  Status PutUint64(const Slice& key, uint64_t value);
  Status PutDouble(const Slice& key, double value);
  Status GetUint64(const Slice& key, uint64_t* value);
  Status GetDouble(const Slice& key, double* value);

  /// Appends to the key's value.
  Status Append(const Slice& key, const Slice& value);

  Status Del(const Slice& key);

  /// Flushes buffered writes; sync/async per argument (default: sync).
  Status WriteBarrier();
  Status WriteBarrier(BarrierMode mode);

  /// Batch passthrough (LevelDB-mode aggregation).
  Status StartBatch();
  Status StopBatch();

  /// In collective mode, ranks must converge here to serve each other's
  /// routed operations before proceeding (pairs of Put/Get complete once
  /// every rank has called Poll... simplified: a collective fence).
  Status CollectiveFence();

  [[nodiscard]] ManagerCounters counters() const;
  [[nodiscard]] lsm::DbStats engine_stats() const { return store_->EngineStats(); }
  /// OK while the underlying store accepts writes; the typed ReadOnly
  /// status after a durability failure latched it read-only.
  [[nodiscard]] Status Health() const { return store_->Health(); }
  /// Tenant id under LsmioOptions::memory_arbiter (0 when this manager's
  /// store is not arbiter-managed). Feed to MemoryArbiter::Residency for
  /// per-tenant memtable/cache residency and forced-flush counts.
  [[nodiscard]] uint64_t memory_tenant_id() const {
    return store_->MemoryTenantId();
  }
  [[nodiscard]] Store& store() noexcept { return *store_; }

 private:
  Manager(LsmioOptions options, std::unique_ptr<Store> store)
      : options_(std::move(options)), store_(std::move(store)) {}

  /// Owner rank of a key in collective mode.
  [[nodiscard]] int OwnerOf(const Slice& key) const;

  LsmioOptions options_;          // unguarded: immutable after construction
  std::unique_ptr<Store> store_;  // unguarded: set once; Store is internally synchronized
  mutable Mutex counters_mu_;
  ManagerCounters counters_ GUARDED_BY(counters_mu_);
};

}  // namespace lsmio
