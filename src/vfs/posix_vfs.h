// Vfs backed by the local POSIX filesystem. Used by unit tests, the
// examples, and anyone adopting LSMIO on a real machine.
#pragma once

#include <atomic>
#include <cstdint>

#include "vfs/vfs.h"

namespace lsmio::vfs {

/// Process-wide counters for posix-specific behaviour that callers cannot
/// otherwise observe: write-behind and the mmap→pread fallback.
struct PosixVfsStats {
  /// Successful write-behind writeback starts (OpenOptions::write_behind)
  /// and the bytes they covered.
  std::atomic<uint64_t> writeback_calls{0};
  std::atomic<uint64_t> writeback_bytes{0};
  /// use_mmap opens where mmap failed and the file silently degraded to
  /// pread (also logged once per process).
  std::atomic<uint64_t> mmap_fallbacks{0};
};

/// Returns the process-wide PosixVfs singleton.
Vfs& PosixVfs();

/// Counters for the PosixVfs singleton (shared by all its files).
PosixVfsStats& GetPosixVfsStats();

}  // namespace lsmio::vfs
