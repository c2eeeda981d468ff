// Virtual file system abstraction.
//
// Every byte that any library in this repository moves to "storage" goes
// through a Vfs. Three implementations exist:
//   * PosixVfs  — real files on the local filesystem (tests, examples);
//   * MemVfs    — in-memory files (fast tests, benchmark data plane);
//   * TraceVfs  — decorates another Vfs and records an IoTrace per agent,
//                 which pfs::LustreSim replays on a simulated Lustre system.
//
// Two access styles are provided because the workloads need both:
//   * append-oriented (WritableFile / SequentialFile / RandomAccessFile) —
//     the LSM engine's WAL/SSTable path;
//   * positional read/write on an open handle (FileHandle) — the POSIX/IOR
//     baseline and the h5l hierarchical format, which update a shared file
//     at strided offsets.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace lsmio::vfs {

/// Per-file open options.
struct OpenOptions {
  /// Hint that reads should be memory-mapped if the backend supports it
  /// (paper §3.1.1 exposes an mmap option on the store).
  bool use_mmap = false;
  /// Write-behind hint for a WritableFile: the backend may start device
  /// writeback of appended bytes before Sync, so the final Sync waits only
  /// for the tail. Advisory and never a durability point: only Sync is.
  /// PosixVfs starts writeback of each MiB as it is appended; other
  /// backends ignore it. TableOutputWriter sets it on flush outputs, whose
  /// install fsync gates writer admission. Compaction outputs leave it off:
  /// writing them behind let compactions run more often and slowed
  /// concurrent reads (DESIGN.md §7).
  bool write_behind = false;
};

/// Append-only file being written.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  /// Pushes library buffers to the backend (no durability guarantee).
  virtual Status Flush() = 0;
  /// Durability barrier: returns once data is on "stable storage".
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
  /// Bytes appended so far.
  [[nodiscard]] virtual uint64_t Size() const = 0;
};

/// Read-only positional access to an immutable file (SSTables).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  /// Reads up to n bytes at offset. *result points into *scratch (or into
  /// mmap'd memory) and is valid until the next call / file close.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      std::string* scratch) const = 0;
  /// Advisory: the caller expects to read [offset, offset+length) soon.
  /// No library code calls it (readers fetch their own runs, see
  /// lsm::Table); kept, as a no-op, for out-of-tree decorators that
  /// override and forward it.
  virtual void Hint(uint64_t offset, size_t length) const {
    (void)offset;
    (void)length;
  }
  [[nodiscard]] virtual uint64_t Size() const = 0;
};

/// Forward-only reader (WAL/manifest recovery).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  virtual Status Read(size_t n, Slice* result, std::string* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

/// Read/write positional handle (POSIX-baseline and h5l usage).
class FileHandle {
 public:
  virtual ~FileHandle() = default;
  virtual Status WriteAt(uint64_t offset, const Slice& data) = 0;
  virtual Status ReadAt(uint64_t offset, size_t n, Slice* result,
                        std::string* scratch) = 0;
  virtual Status Sync() = 0;
  virtual Status Truncate(uint64_t size) = 0;
  virtual Status Close() = 0;
  [[nodiscard]] virtual uint64_t Size() const = 0;
};

/// File-system namespace + factory for file objects. Thread-safe.
class Vfs {
 public:
  virtual ~Vfs() = default;

  virtual Status NewWritableFile(const std::string& path, const OpenOptions& opts,
                                 std::unique_ptr<WritableFile>* file) = 0;
  virtual Status NewRandomAccessFile(const std::string& path, const OpenOptions& opts,
                                     std::unique_ptr<RandomAccessFile>* file) = 0;
  virtual Status NewSequentialFile(const std::string& path, const OpenOptions& opts,
                                   std::unique_ptr<SequentialFile>* file) = 0;
  /// Opens (creating if `create`) a read/write handle.
  virtual Status OpenFileHandle(const std::string& path, bool create,
                                const OpenOptions& opts,
                                std::unique_ptr<FileHandle>* file) = 0;

  virtual bool FileExists(const std::string& path) = 0;
  virtual Status GetFileSize(const std::string& path, uint64_t* size) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual Status CreateDir(const std::string& path) = 0;
  /// Lists immediate children names (not full paths) of a directory.
  virtual Status ListDir(const std::string& path, std::vector<std::string>* out) = 0;
};

/// Convenience: reads a whole file into *out.
Status ReadFileToString(Vfs& fs, const std::string& path, std::string* out);

/// Convenience: writes data as the entire contents of path (+Sync).
Status WriteStringToFile(Vfs& fs, const std::string& path, const Slice& data);

}  // namespace lsmio::vfs
