// Local Store (paper §3.1.2): the layer encapsulating the LSM engine behind
// the internal K/V interface, including batching (startBatch/stopBatch) and
// the write barrier. Table 1 of the paper lists exactly this surface.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "core/lsmio_options.h"
#include "lsm/db.h"
#include "lsm/write_batch.h"

namespace lsmio {

/// The internal K/V interface of the Local Store.
class Store {
 public:
  virtual ~Store() = default;

  /// Begins aggregation if the configuration requires it (no-op otherwise).
  virtual Status StartBatch() = 0;
  /// Ends aggregation, applying buffered writes.
  virtual Status StopBatch() = 0;

  /// Point lookup; always synchronous (paper Table 1). Engine read options
  /// (fill_cache, verify_checksums, snapshot, readahead) pass through
  /// instead of being defaulted internally.
  virtual Status Get(const lsm::ReadOptions& options, const Slice& key,
                     std::string* value) = 0;
  /// Point lookup with default read options.
  Status Get(const Slice& key, std::string* value) {
    return Get(lsm::ReadOptions{}, key, value);
  }
  /// Batched point lookup (engine MultiGet): fills (*values)[i] and
  /// (*statuses)[i] per key at one consistent read point.
  virtual Status GetBatch(const lsm::ReadOptions& options,
                          std::span<const Slice> keys,
                          std::vector<std::string>* values,
                          std::vector<Status>* statuses) = 0;
  Status GetBatch(std::span<const Slice> keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses) {
    return GetBatch(lsm::ReadOptions{}, keys, values, statuses);
  }
  /// Upsert; asynchronous unless the store is configured for sync writes.
  virtual Status Put(const Slice& key, const Slice& value) = 0;
  /// Appends to the existing value (creates it when absent).
  virtual Status Append(const Slice& key, const Slice& value) = 0;
  /// Removes the key.
  virtual Status Del(const Slice& key) = 0;

  /// Flushes all buffered writes to storage; blocks per `mode`.
  virtual Status WriteBarrier(BarrierMode mode) = 0;

  /// Engine statistics passthrough. On a sharded store these are whole-store
  /// aggregates, each statistic folded across shards by its declared kind.
  [[nodiscard]] virtual lsm::DbStats EngineStats() const = 0;
  /// Health passthrough: OK while the engine accepts writes; the typed
  /// ReadOnly status once a WAL/manifest/flush failure latched the engine
  /// into sticky read-only mode (reopen to clear).
  [[nodiscard]] virtual Status Health() const = 0;
  /// Tenant id under LsmioOptions::memory_arbiter (0 when the store is not
  /// arbiter-managed). Feed to MemoryArbiter::Residency.
  [[nodiscard]] virtual uint64_t MemoryTenantId() const { return 0; }
  /// Iterator over the full key space (caller deletes before the store),
  /// honouring the given engine read options (e.g. readahead_bytes for
  /// sequential restore scans, fill_cache=false for one-shot sweeps).
  virtual lsm::Iterator* NewIterator(const lsm::ReadOptions& options) = 0;
  lsm::Iterator* NewIterator() { return NewIterator(lsm::ReadOptions{}); }
};

/// Opens the LSM-backed Local Store at `path`, applying the paper's
/// customizations from `options`.
Status OpenLsmStore(const LsmioOptions& options, const std::string& path,
                    std::unique_ptr<Store>* store);

}  // namespace lsmio
