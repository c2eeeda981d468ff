// Cache of open Table readers keyed by file number, so repeated lookups
// don't re-open and re-parse table footers.
//
// Thread-safety: all methods are safe to call concurrently; the state lives
// in the underlying ShardedLRUCache (per-shard mutexes, see lsm/cache.cc)
// and Tables themselves are immutable once opened.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "lsm/cache.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "vfs/vfs.h"

namespace lsmio::lsm {

class Comparator;
class FilterPolicy;
struct ReadCounters;

class TableCache {
 public:
  /// `entries` bounds the number of simultaneously open tables. `counters`
  /// (optional, must outlive the cache) receives read-path statistics from
  /// every table opened through this cache.
  TableCache(std::string dbname, const Options& options,
             const Comparator* icmp, const FilterPolicy* filter_policy,
             Cache* block_cache, int entries,
             ReadCounters* counters = nullptr);
  ~TableCache();

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  /// Iterator over table `file_number` (size `file_size`).
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number,
                        uint64_t file_size);

  /// Lookup in table `file_number`; `internal_keys` must be sorted
  /// ascending. handle_result(i, key, value) fires per located entry (same
  /// contract as Table::MultiGet).
  Status MultiGet(const ReadOptions& options, uint64_t file_number,
                  uint64_t file_size, std::span<const Slice> internal_keys,
                  const std::function<void(size_t, const Slice&, const Slice&)>&
                      handle_result);

  /// Drops the cached handle for a deleted file.
  void Evict(uint64_t file_number);

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size, Cache::Handle** handle);

  std::string dbname_;
  Options options_;
  const Comparator* icmp_;
  const FilterPolicy* filter_policy_;
  Cache* block_cache_;
  ReadCounters* counters_;
  std::unique_ptr<Cache> cache_;
};

}  // namespace lsmio::lsm
