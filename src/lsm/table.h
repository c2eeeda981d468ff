// Immutable SSTable reader: footer → index/metaindex/filter blocks, block
// cache integration, iteration via the two-level iterator, and lookups
// (MultiGet, one key or many) that probe the bloom filter. Every data block
// is fetched through one run read: a cache probe, then one VFS read of a
// run of adjacent blocks, each decoded from the shared buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "common/slice.h"
#include "common/status.h"
#include "lsm/cache.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "vfs/vfs.h"

namespace lsmio::lsm {

class Comparator;
class FilterPolicy;
struct ReadCounters;

class Table {
 public:
  /// Opens a table over `file` (which must outlive the Table). `file_size`
  /// is the table's full size; `cache_id` namespaces block-cache keys and
  /// `block_cache` may be null. `filter_policy` may be null. `counters`
  /// (optional) receives read-path statistics and must outlive the Table.
  ///
  /// The index and filter blocks are read once here and stay pinned for the
  /// table's lifetime: in the block cache through a retained handle (so
  /// they count against its capacity) when one is in use, table-owned
  /// otherwise.
  static Status Open(const Options& options, const Comparator* comparator,
                     const FilterPolicy* filter_policy, Cache* block_cache,
                     uint64_t cache_id, vfs::RandomAccessFile* file,
                     uint64_t file_size, std::unique_ptr<Table>* table,
                     ReadCounters* counters = nullptr);

  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Iterator over the table's (internal key, value) entries. With
  /// options.readahead_bytes = W > 0, a forward step to a block outside the
  /// last read window reads one window of max(block, min(W, 1 MiB)) bytes
  /// starting at that block and serves every block wholly inside it from
  /// that buffer; with W = 0, or behind the window, a block is read alone.
  Iterator* NewIterator(const ReadOptions& options) const;

  /// Looks up `internal_keys`, which must be sorted ascending by the
  /// table's comparator (a point lookup is a batch of one). Seeks the index
  /// once per key in order, probes the bloom filter first, groups keys by
  /// data block, and fetches runs of adjacent cache-missing blocks with one
  /// VFS read each. Calls handle_result(i, found_key, found_value) with the
  /// first entry >= internal_keys[i] in the block that would hold it, for
  /// every key the filter does not rule out and whose block has one.
  Status MultiGet(const ReadOptions& options,
                  std::span<const Slice> internal_keys,
                  const std::function<void(size_t, const Slice&, const Slice&)>&
                      handle_result) const;

 private:
  struct Rep;
  explicit Table(std::unique_ptr<Rep> rep);

  /// False when the bloom filter proves `user_key` absent from the data
  /// block at `block_offset`.
  bool FilterKeyMayMatch(uint64_t block_offset, const Slice& user_key) const;

  /// Reads and pins the bloom filter named by the metaindex, if any.
  Status ReadFilter(const class Footer& footer);

  std::unique_ptr<Rep> rep_;
};

}  // namespace lsmio::lsm
