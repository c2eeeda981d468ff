#include "vfs/posix_vfs.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "common/logging.h"

namespace lsmio::vfs {
namespace {

/// A write-behind file starts writeback each time at least this many bytes
/// have been appended since the last start.
constexpr uint64_t kWriteBehindBytes = 1 << 20;

Status ErrnoStatus(const std::string& context, int err) {
  const std::string msg = context + ": " + std::strerror(err);
  if (err == ENOENT) return Status::NotFound(msg);
  return Status::IoError(msg);
}

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path, bool write_behind)
      : fd_(fd), path_(std::move(path)), write_behind_(write_behind) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const Slice& data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("write " + path_, errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    size_ += data.size();
    MaybeStartWriteback();
    return Status::OK();
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close " + path_, errno);
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  /// Write-behind: starts device writeback of the bytes appended since the
  /// last start once they reach kWriteBehindBytes, so Sync waits only for
  /// the tail. SYNC_FILE_RANGE_WRITE alone: the WAIT flags would wait
  /// through the file's writeback-error cursor and consume an error that
  /// the later fdatasync must report. Advisory: a failed call turns
  /// write-behind off for this file and never fails the Append.
  void MaybeStartWriteback() {
#ifdef SYNC_FILE_RANGE_WRITE
    if (!write_behind_ || size_ - writeback_from_ < kWriteBehindBytes) return;
    const uint64_t n = size_ - writeback_from_;
    if (::sync_file_range(fd_, static_cast<off_t>(writeback_from_),
                          static_cast<off_t>(n), SYNC_FILE_RANGE_WRITE) != 0) {
      write_behind_ = false;
      return;
    }
    writeback_from_ = size_;
    PosixVfsStats& stats = GetPosixVfsStats();
    stats.writeback_calls.fetch_add(1, std::memory_order_relaxed);
    stats.writeback_bytes.fetch_add(n, std::memory_order_relaxed);
#endif
  }

  int fd_;
  std::string path_;
  uint64_t size_ = 0;
  bool write_behind_;
  /// Offset of the first byte whose writeback has not been started.
  uint64_t writeback_from_ = 0;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, uint64_t size, void* map)
      : fd_(fd), map_size_(map != nullptr ? size : 0), size_(size), map_(map) {}
  ~PosixRandomAccessFile() override {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              std::string* scratch) const override {
    if (offset <= map_size_ && n <= map_size_ - offset) {
      *result = Slice(static_cast<const char*>(map_) + offset, n);
      return Status::OK();
    }
    // Past the mapping, or no mapping: pread, which also sees bytes
    // appended since open (the value log reads its active segment this
    // way). Racing readers may store an older size: files only grow, so
    // that costs a later fstat, never a short read.
    uint64_t size = size_.load(std::memory_order_relaxed);
    struct stat st{};
    if ((offset > size || n > size - offset) && ::fstat(fd_, &st) == 0) {
      size = static_cast<uint64_t>(st.st_size);
      size_.store(size, std::memory_order_relaxed);
    }
    if (offset > size) {
      *result = Slice();
      return Status::OK();
    }
    const size_t avail = static_cast<size_t>(size - offset);
    const size_t want = n < avail ? n : avail;
    scratch->resize(want);
    size_t done = 0;
    while (done < want) {
      const ssize_t r = ::pread(fd_, scratch->data() + done, want - done,
                                static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread", errno);
      }
      if (r == 0) break;
      done += static_cast<size_t>(r);
    }
    scratch->resize(done);
    *result = Slice(*scratch);
    return Status::OK();
  }

  /// The largest size a read has seen: the size at open, until a read past
  /// it finds the file grown.
  uint64_t Size() const override { return size_.load(std::memory_order_relaxed); }

 private:
  int fd_;             // unguarded: immutable after open
  uint64_t map_size_;  // unguarded: immutable after open; 0 without a mapping
  mutable std::atomic<uint64_t> size_;  // unguarded: atomic
  void* map_;  // unguarded: immutable after open
};

class PosixSequentialFile final : public SequentialFile {
 public:
  explicit PosixSequentialFile(int fd) : fd_(fd) {}
  ~PosixSequentialFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(size_t n, Slice* result, std::string* scratch) override {
    scratch->resize(n);
    size_t done = 0;
    while (done < n) {
      const ssize_t r = ::read(fd_, scratch->data() + done, n - done);
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("read", errno);
      }
      if (r == 0) break;
      done += static_cast<size_t>(r);
    }
    scratch->resize(done);
    *result = Slice(*scratch);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) < 0) {
      return ErrnoStatus("lseek", errno);
    }
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixFileHandle final : public FileHandle {
 public:
  PosixFileHandle(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFileHandle() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status WriteAt(uint64_t offset, const Slice& data) override {
    const char* p = data.data();
    size_t left = data.size();
    uint64_t off = offset;
    while (left > 0) {
      const ssize_t n = ::pwrite(fd_, p, left, static_cast<off_t>(off));
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pwrite " + path_, errno);
      }
      p += n;
      off += static_cast<uint64_t>(n);
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status ReadAt(uint64_t offset, size_t n, Slice* result,
                std::string* scratch) override {
    scratch->resize(n);
    size_t done = 0;
    while (done < n) {
      const ssize_t r = ::pread(fd_, scratch->data() + done, n - done,
                                static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return ErrnoStatus("pread " + path_, errno);
      }
      if (r == 0) break;
      done += static_cast<size_t>(r);
    }
    scratch->resize(done);
    *result = Slice(*scratch);
    return Status::OK();
  }

  Status Sync() override {
    if (::fdatasync(fd_) != 0) return ErrnoStatus("fdatasync " + path_, errno);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return ErrnoStatus("ftruncate " + path_, errno);
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close " + path_, errno);
    return Status::OK();
  }

  uint64_t Size() const override {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

 private:
  int fd_;
  std::string path_;
};

class PosixVfsImpl final : public Vfs {
 public:
  Status NewWritableFile(const std::string& path, const OpenOptions& opts,
                         std::unique_ptr<WritableFile>* file) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return ErrnoStatus("open(w) " + path, errno);
    *file = std::make_unique<PosixWritableFile>(fd, path, opts.write_behind);
    return Status::OK();
  }

  Status NewRandomAccessFile(const std::string& path, const OpenOptions& opts,
                             std::unique_ptr<RandomAccessFile>* file) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open(r) " + path, errno);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("fstat " + path, err);
    }
    void* map = nullptr;
    if (opts.use_mmap && st.st_size > 0) {
      map = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                   MAP_SHARED, fd, 0);
      if (map == MAP_FAILED) {
        // Fall back to pread. Reads stay correct but lose the zero-copy
        // path the caller asked for, so make the degradation observable.
        const int err = errno;
        map = nullptr;
        GetPosixVfsStats().mmap_fallbacks.fetch_add(1, std::memory_order_relaxed);
        static std::once_flag warned;
        std::call_once(warned, [&] {
          LSMIO_WARN << "mmap(" << path << ") failed (" << std::strerror(err)
                     << "); falling back to pread (warning logged once; see "
                        "PosixVfsStats::mmap_fallbacks for the count)";
        });
      }
    }
    *file = std::make_unique<PosixRandomAccessFile>(
        fd, static_cast<uint64_t>(st.st_size), map);
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& path, const OpenOptions&,
                           std::unique_ptr<SequentialFile>* file) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open(r) " + path, errno);
    *file = std::make_unique<PosixSequentialFile>(fd);
    return Status::OK();
  }

  Status OpenFileHandle(const std::string& path, bool create, const OpenOptions&,
                        std::unique_ptr<FileHandle>* file) override {
    int flags = O_RDWR;
    if (create) flags |= O_CREAT;
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return ErrnoStatus("open(rw) " + path, errno);
    *file = std::make_unique<PosixFileHandle>(fd, path);
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Status GetFileSize(const std::string& path, uint64_t* size) override {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat " + path, errno);
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink " + path, errno);
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename " + from + " -> " + to, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) return Status::IoError("mkdir " + path + ": " + ec.message());
    return Status::OK();
  }

  Status ListDir(const std::string& path, std::vector<std::string>* out) override {
    out->clear();
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      out->push_back(entry.path().filename().string());
    }
    if (ec) return Status::IoError("listdir " + path + ": " + ec.message());
    return Status::OK();
  }
};

}  // namespace

Vfs& PosixVfs() {
  static PosixVfsImpl instance;
  return instance;
}

PosixVfsStats& GetPosixVfsStats() {
  static PosixVfsStats stats;
  return stats;
}

Status ReadFileToString(Vfs& fs, const std::string& path, std::string* out) {
  out->clear();
  std::unique_ptr<SequentialFile> file;
  LSMIO_RETURN_IF_ERROR(fs.NewSequentialFile(path, {}, &file));
  constexpr size_t kChunk = 1 << 20;
  std::string scratch;
  for (;;) {
    Slice chunk;
    LSMIO_RETURN_IF_ERROR(file->Read(kChunk, &chunk, &scratch));
    if (chunk.empty()) break;
    out->append(chunk.data(), chunk.size());
    if (chunk.size() < kChunk) break;
  }
  return Status::OK();
}

Status WriteStringToFile(Vfs& fs, const std::string& path, const Slice& data) {
  std::unique_ptr<WritableFile> file;
  LSMIO_RETURN_IF_ERROR(fs.NewWritableFile(path, {}, &file));
  LSMIO_RETURN_IF_ERROR(file->Append(data));
  LSMIO_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

}  // namespace lsmio::vfs
