// The benchmark's instruments from outside the library: an in-memory span
// recorder and a Vfs decorator that counts (and, when tracing, times) every
// append, sync and read the store issues, per class of file.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "vfs/vfs.h"

namespace lsmio_bench {

/// Monotonic clock reading in nanoseconds.
uint64_t NowNs();

/// Small dense id of the calling thread (1, 2, ... in first-use order).
uint32_t ThreadIndex();

/// One recorded span. `name` points to a string literal.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

/// Keeps spans in memory and writes them out as TSV at the end of the run.
/// Each span name keeps at most `per_name_capacity` spans (later ones are
/// counted as dropped), so a flood of puts cannot crowd out flush spans.
class Tracer {
 public:
  explicit Tracer(size_t per_name_capacity) : per_name_capacity_(per_name_capacity) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const char* name, uint64_t id, uint64_t parent, uint64_t begin_ns,
              uint64_t end_ns);
  /// Records a root span with a fresh id.
  void Record(const char* name, uint64_t begin_ns, uint64_t end_ns) {
    Record(name, NewId(), 0, begin_ns, end_ns);
  }
  [[nodiscard]] uint64_t recorded() const;
  [[nodiscard]] uint64_t dropped() const;
  /// Writes `id parent name thread begin_ns end_ns` lines; false on I/O error.
  [[nodiscard]] bool WriteTsv(const std::string& path) const;

 private:
  const size_t per_name_capacity_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;                                // guarded by mu_
  std::vector<std::pair<const char*, size_t>> per_name_;  // guarded by mu_
  uint64_t dropped_ = 0;                                   // guarded by mu_
};

/// Per-file-class I/O totals. Times are only accumulated while tracing.
struct ClassStats {
  uint64_t append_calls = 0;
  uint64_t append_bytes = 0;
  uint64_t append_ns = 0;
  uint64_t sync_ns = 0;
  uint64_t read_calls = 0;
  uint64_t read_bytes = 0;
  uint64_t read_ns = 0;
};

/// Table files closed: their bytes, how long each was open for writing
/// (create to close) and that span's self time, i.e. minus the VFS calls
/// inside it. Times are only accumulated while tracing.
struct TableBuildStats {
  uint64_t bytes = 0;
  uint64_t span_ns = 0;
  uint64_t self_ns = 0;
};

struct VfsStats {
  std::array<ClassStats, kNumFileClasses> by_class{};
  TableBuildStats table_builds;

  [[nodiscard]] const ClassStats& of(FileClass c) const {
    return by_class[static_cast<size_t>(c)];
  }
  [[nodiscard]] uint64_t write_bytes() const;
  [[nodiscard]] ClassStats reads() const;  // summed over classes
  /// Field-wise this - earlier.
  [[nodiscard]] VfsStats Since(const VfsStats& earlier) const;
  /// Field-wise sum.
  VfsStats& operator+=(const VfsStats& other);
};

/// Decorates a base Vfs; thread-safe. Files capture the tracer set at the
/// time they are opened, so switch tracing only while no store is open.
class TimingVfs final : public lsmio::vfs::Vfs {
 public:
  explicit TimingVfs(lsmio::vfs::Vfs& base);
  ~TimingVfs() override;
  TimingVfs(const TimingVfs&) = delete;
  TimingVfs& operator=(const TimingVfs&) = delete;

  /// Non-null: time every call and record spans into `tracer`, which must
  /// outlive every file opened meanwhile. Null: count calls and bytes only.
  void set_tracer(Tracer* tracer) { tracer_.store(tracer, std::memory_order_relaxed); }
  [[nodiscard]] VfsStats Snapshot() const;

  lsmio::Status NewWritableFile(const std::string& path,
                                const lsmio::vfs::OpenOptions& opts,
                                std::unique_ptr<lsmio::vfs::WritableFile>* file) override;
  lsmio::Status NewRandomAccessFile(
      const std::string& path, const lsmio::vfs::OpenOptions& opts,
      std::unique_ptr<lsmio::vfs::RandomAccessFile>* file) override;
  lsmio::Status NewSequentialFile(const std::string& path,
                                  const lsmio::vfs::OpenOptions& opts,
                                  std::unique_ptr<lsmio::vfs::SequentialFile>* file) override;
  lsmio::Status OpenFileHandle(const std::string& path, bool create,
                               const lsmio::vfs::OpenOptions& opts,
                               std::unique_ptr<lsmio::vfs::FileHandle>* file) override;
  bool FileExists(const std::string& path) override;
  lsmio::Status GetFileSize(const std::string& path, uint64_t* size) override;
  lsmio::Status RemoveFile(const std::string& path) override;
  lsmio::Status RenameFile(const std::string& from, const std::string& to) override;
  lsmio::Status CreateDir(const std::string& path) override;
  lsmio::Status ListDir(const std::string& path, std::vector<std::string>* out) override;

  struct Counters;  // atomic mirror of VfsStats, defined in timing_vfs.cc

 private:
  lsmio::vfs::Vfs& base_;
  std::atomic<Tracer*> tracer_{nullptr};
  std::unique_ptr<Counters> counters_;
};

}  // namespace lsmio_bench
