// Read-path counters shared by DBImpl, TableCache and Table. Tables run
// concurrently on many reader threads, so the counters are relaxed atomics;
// DBImpl::GetStats folds them into the DbStats snapshot.
#pragma once

#include <atomic>
#include <cstdint>

namespace lsmio::lsm {

struct ReadCounters {
  /// Bloom-filter probes, and how many proved the key absent (saving a
  /// data-block fetch).
  std::atomic<uint64_t> bloom_checked{0};
  std::atomic<uint64_t> bloom_useful{0};
  /// Block-cache outcome per data-block fetch (a miss when the cache is
  /// off).
  std::atomic<uint64_t> block_cache_hits{0};
  std::atomic<uint64_t> block_cache_misses{0};
  /// Bytes table iterators read in readahead windows.
  std::atomic<uint64_t> readahead_bytes{0};
  /// Physical reads saved by MultiGet coalescing adjacent data blocks into
  /// one VFS read.
  std::atomic<uint64_t> coalesced_reads{0};
};

}  // namespace lsmio::lsm
