// Vfs backed by the local POSIX filesystem. Used by unit tests, the
// examples, and anyone adopting LSMIO on a real machine.
#pragma once

#include <atomic>
#include <cstdint>

#include "vfs/vfs.h"

namespace lsmio::vfs {

/// Process-wide counters for posix-specific behaviour that callers cannot
/// otherwise observe: readahead hints, write-behind and the mmap→pread
/// fallback.
struct PosixVfsStats {
  /// RandomAccessFile::Hint invocations and the bytes they covered.
  std::atomic<uint64_t> hint_calls{0};
  std::atomic<uint64_t> hint_bytes{0};
  /// Successful write-behind writeback starts (OpenOptions::write_behind)
  /// and the bytes they covered.
  std::atomic<uint64_t> writeback_calls{0};
  std::atomic<uint64_t> writeback_bytes{0};
  /// Reads served entirely from the Hint prefetch buffer (no syscall).
  std::atomic<uint64_t> prefetch_hits{0};
  /// use_mmap opens where mmap failed and the file silently degraded to
  /// pread (also logged once per process).
  std::atomic<uint64_t> mmap_fallbacks{0};
};

/// Returns the process-wide PosixVfs singleton.
Vfs& PosixVfs();

/// Counters for the PosixVfs singleton (shared by all its files).
PosixVfsStats& GetPosixVfsStats();

}  // namespace lsmio::vfs
