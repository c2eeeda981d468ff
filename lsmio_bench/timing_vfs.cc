#include "timing_vfs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace lsmio_bench {

using lsmio::Slice;
using lsmio::Status;
namespace vfs = lsmio::vfs;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void Tracer::Record(const char* name, uint64_t id, uint64_t parent, uint64_t begin_ns,
                    uint64_t end_ns) {
  const uint32_t thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(per_name_.begin(), per_name_.end(),
                         [name](const auto& entry) { return entry.first == name; });
  if (it == per_name_.end()) it = per_name_.insert(per_name_.end(), {name, 0});
  if (it->second >= per_name_capacity_) {
    ++dropped_;
    return;
  }
  ++it->second;
  spans_.push_back(Span{name, id, parent, begin_ns, end_ns, thread});
}

uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "id\tparent\tname\tthread\tbegin_ns\tend_ns\n") > 0;
  for (const Span& s : spans_) {
    if (!ok) break;
    ok = std::fprintf(f, "%llu\t%llu\t%s\t%u\t%llu\t%llu\n",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent), s.name, s.thread,
                      static_cast<unsigned long long>(s.begin_ns),
                      static_cast<unsigned long long>(s.end_ns)) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

uint64_t VfsStats::write_bytes() const {
  uint64_t total = 0;
  for (const ClassStats& c : by_class) total += c.append_bytes;
  return total;
}

ClassStats VfsStats::reads() const {
  ClassStats total;
  for (const ClassStats& c : by_class) {
    total.read_calls += c.read_calls;
    total.read_bytes += c.read_bytes;
    total.read_ns += c.read_ns;
  }
  return total;
}

namespace {
// Applies `op` to every pair of corresponding counters of a and b.
template <typename Op>
void ForEachCounter(VfsStats& a, const VfsStats& b, Op op) {
  for (size_t i = 0; i < a.by_class.size(); ++i) {
    ClassStats& x = a.by_class[i];
    const ClassStats& y = b.by_class[i];
    op(x.append_calls, y.append_calls);
    op(x.append_bytes, y.append_bytes);
    op(x.append_ns, y.append_ns);
    op(x.sync_ns, y.sync_ns);
    op(x.read_calls, y.read_calls);
    op(x.read_bytes, y.read_bytes);
    op(x.read_ns, y.read_ns);
  }
  op(a.table_builds.bytes, b.table_builds.bytes);
  op(a.table_builds.span_ns, b.table_builds.span_ns);
  op(a.table_builds.self_ns, b.table_builds.self_ns);
}
}  // namespace

VfsStats VfsStats::Since(const VfsStats& earlier) const {
  VfsStats d = *this;
  ForEachCounter(d, earlier, [](uint64_t& x, uint64_t y) { x -= y; });
  return d;
}

VfsStats& VfsStats::operator+=(const VfsStats& other) {
  ForEachCounter(*this, other, [](uint64_t& x, uint64_t y) { x += y; });
  return *this;
}

namespace {
using Counter = std::atomic<uint64_t>;
constexpr auto kRelaxed = std::memory_order_relaxed;

struct AtomicClassStats {
  Counter append_calls{0}, append_bytes{0}, append_ns{0},
      sync_ns{0}, read_calls{0}, read_bytes{0}, read_ns{0};
};

const char* WriteSpanName(FileClass c) {
  static constexpr const char* kNames[kNumFileClasses] = {
      "file.write.table", "file.write.wal", "file.write.manifest",
      "file.write.blob", "file.write.other"};
  return kNames[static_cast<size_t>(c)];
}

const char* ReadSpanName(FileClass c) {
  static constexpr const char* kNames[kNumFileClasses] = {
      "file.read.table", "file.read.wal", "file.read.manifest", "file.read.blob",
      "file.read.other"};
  return kNames[static_cast<size_t>(c)];
}
}  // namespace

struct TimingVfs::Counters {
  std::array<AtomicClassStats, kNumFileClasses> by_class;
  Counter table_bytes{0}, table_span_ns{0}, table_self_ns{0};
};

namespace {

/// Times one call when a tracer is present, recording it as a child span of
/// the file's span; returns the call's duration (0 when untraced).
template <typename Fn>
uint64_t TimeCall(Tracer* tracer, const char* name, uint64_t file_span, Fn&& fn,
                  Interval* when) {
  if (tracer == nullptr) {
    fn();
    return 0;
  }
  const uint64_t begin = NowNs();
  fn();
  const uint64_t end = NowNs();
  tracer->Record(name, tracer->NewId(), file_span, begin, end);
  if (when != nullptr) *when = Interval{begin, end};
  return end - begin;
}

class TimedWritableFile final : public vfs::WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<vfs::WritableFile> base, FileClass cls,
                    TimingVfs::Counters& counters, Tracer* tracer)
      : base_(std::move(base)),
        cls_(cls),
        counters_(counters),
        stats_(counters.by_class[static_cast<size_t>(cls)]),
        tracer_(tracer),
        span_id_(tracer != nullptr ? tracer->NewId() : 0),
        open_ns_(tracer != nullptr ? NowNs() : 0) {}

  ~TimedWritableFile() override { Finish(); }
  TimedWritableFile(const TimedWritableFile&) = delete;
  TimedWritableFile& operator=(const TimedWritableFile&) = delete;

  Status Append(const Slice& data) override {
    Status s;
    Interval when;
    const uint64_t ns =
        TimeCall(tracer_, "vfs.append", span_id_, [&] { s = base_->Append(data); }, &when);
    stats_.append_calls.fetch_add(1, kRelaxed);
    stats_.append_bytes.fetch_add(data.size(), kRelaxed);
    if (tracer_ != nullptr) {
      stats_.append_ns.fetch_add(ns, kRelaxed);
      if (cls_ == FileClass::kTable) children_.push_back(when);
    }
    return s;
  }

  Status Flush() override { return base_->Flush(); }

  Status Sync() override {
    Status s;
    Interval when;
    const uint64_t ns =
        TimeCall(tracer_, "vfs.sync", span_id_, [&] { s = base_->Sync(); }, &when);
    if (tracer_ != nullptr) {
      stats_.sync_ns.fetch_add(ns, kRelaxed);
      if (cls_ == FileClass::kTable) children_.push_back(when);
    }
    return s;
  }

  Status Close() override {
    Status s = base_->Close();
    Finish();
    return s;
  }

  [[nodiscard]] uint64_t Size() const override { return base_->Size(); }

 private:
  // Closes the file's span once, whether the store closed the file or only
  // destroyed it.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    if (cls_ == FileClass::kTable) counters_.table_bytes.fetch_add(base_->Size(), kRelaxed);
    if (tracer_ == nullptr) return;
    const uint64_t close_ns = NowNs();
    tracer_->Record(WriteSpanName(cls_), span_id_, 0, open_ns_, close_ns);
    if (cls_ == FileClass::kTable) {
      counters_.table_span_ns.fetch_add(close_ns - open_ns_, kRelaxed);
      counters_.table_self_ns.fetch_add(
          SelfTimeNs(Interval{open_ns_, close_ns}, std::move(children_)), kRelaxed);
    }
  }

  std::unique_ptr<vfs::WritableFile> base_;
  const FileClass cls_;
  TimingVfs::Counters& counters_;
  AtomicClassStats& stats_;
  Tracer* const tracer_;
  const uint64_t span_id_;
  const uint64_t open_ns_;
  std::vector<Interval> children_;  // traced table files only
  bool finished_ = false;
};

class TimedRandomAccessFile final : public vfs::RandomAccessFile {
 public:
  TimedRandomAccessFile(std::unique_ptr<vfs::RandomAccessFile> base, FileClass cls,
                        AtomicClassStats& stats, Tracer* tracer)
      : base_(std::move(base)),
        cls_(cls),
        stats_(stats),
        tracer_(tracer),
        span_id_(tracer != nullptr ? tracer->NewId() : 0),
        open_ns_(tracer != nullptr ? NowNs() : 0) {}

  ~TimedRandomAccessFile() override {
    if (tracer_ != nullptr) tracer_->Record(ReadSpanName(cls_), span_id_, 0, open_ns_, NowNs());
  }
  TimedRandomAccessFile(const TimedRandomAccessFile&) = delete;
  TimedRandomAccessFile& operator=(const TimedRandomAccessFile&) = delete;

  Status Read(uint64_t offset, size_t n, Slice* result,
              std::string* scratch) const override {
    Status s;
    const uint64_t ns = TimeCall(
        tracer_, "vfs.read", span_id_,
        [&] { s = base_->Read(offset, n, result, scratch); }, nullptr);
    stats_.read_calls.fetch_add(1, kRelaxed);
    if (s.ok()) stats_.read_bytes.fetch_add(result->size(), kRelaxed);
    if (tracer_ != nullptr) stats_.read_ns.fetch_add(ns, kRelaxed);
    return s;
  }

  void Hint(uint64_t offset, size_t length) const override { base_->Hint(offset, length); }
  [[nodiscard]] uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<vfs::RandomAccessFile> base_;
  const FileClass cls_;
  AtomicClassStats& stats_;
  Tracer* const tracer_;
  const uint64_t span_id_;
  const uint64_t open_ns_;
};

class TimedSequentialFile final : public vfs::SequentialFile {
 public:
  TimedSequentialFile(std::unique_ptr<vfs::SequentialFile> base, FileClass cls,
                      AtomicClassStats& stats, Tracer* tracer)
      : base_(std::move(base)),
        cls_(cls),
        stats_(stats),
        tracer_(tracer),
        span_id_(tracer != nullptr ? tracer->NewId() : 0),
        open_ns_(tracer != nullptr ? NowNs() : 0) {}

  ~TimedSequentialFile() override {
    if (tracer_ != nullptr) tracer_->Record(ReadSpanName(cls_), span_id_, 0, open_ns_, NowNs());
  }
  TimedSequentialFile(const TimedSequentialFile&) = delete;
  TimedSequentialFile& operator=(const TimedSequentialFile&) = delete;

  Status Read(size_t n, Slice* result, std::string* scratch) override {
    Status s;
    const uint64_t ns = TimeCall(
        tracer_, "vfs.read", span_id_, [&] { s = base_->Read(n, result, scratch); },
        nullptr);
    stats_.read_calls.fetch_add(1, kRelaxed);
    if (s.ok()) stats_.read_bytes.fetch_add(result->size(), kRelaxed);
    if (tracer_ != nullptr) stats_.read_ns.fetch_add(ns, kRelaxed);
    return s;
  }

  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<vfs::SequentialFile> base_;
  const FileClass cls_;
  AtomicClassStats& stats_;
  Tracer* const tracer_;
  const uint64_t span_id_;
  const uint64_t open_ns_;
};

}  // namespace

TimingVfs::TimingVfs(vfs::Vfs& base) : base_(base), counters_(std::make_unique<Counters>()) {}
TimingVfs::~TimingVfs() = default;

VfsStats TimingVfs::Snapshot() const {
  VfsStats out;
  for (size_t i = 0; i < out.by_class.size(); ++i) {
    const AtomicClassStats& a = counters_->by_class[i];
    out.by_class[i] = ClassStats{a.append_calls.load(kRelaxed), a.append_bytes.load(kRelaxed),
                                 a.append_ns.load(kRelaxed),    a.sync_ns.load(kRelaxed),
                                 a.read_calls.load(kRelaxed),   a.read_bytes.load(kRelaxed),
                                 a.read_ns.load(kRelaxed)};
  }
  out.table_builds = TableBuildStats{counters_->table_bytes.load(kRelaxed),
                                     counters_->table_span_ns.load(kRelaxed),
                                     counters_->table_self_ns.load(kRelaxed)};
  return out;
}

Status TimingVfs::NewWritableFile(const std::string& path, const vfs::OpenOptions& opts,
                                  std::unique_ptr<vfs::WritableFile>* file) {
  std::unique_ptr<vfs::WritableFile> base;
  Status s = base_.NewWritableFile(path, opts, &base);
  if (!s.ok()) return s;
  const FileClass cls = ClassifyPath(path);
  *file = std::make_unique<TimedWritableFile>(std::move(base), cls, *counters_,
                                              tracer_.load(kRelaxed));
  return s;
}

Status TimingVfs::NewRandomAccessFile(const std::string& path, const vfs::OpenOptions& opts,
                                      std::unique_ptr<vfs::RandomAccessFile>* file) {
  std::unique_ptr<vfs::RandomAccessFile> base;
  Status s = base_.NewRandomAccessFile(path, opts, &base);
  if (!s.ok()) return s;
  const FileClass cls = ClassifyPath(path);
  *file = std::make_unique<TimedRandomAccessFile>(
      std::move(base), cls, counters_->by_class[static_cast<size_t>(cls)],
      tracer_.load(kRelaxed));
  return s;
}

Status TimingVfs::NewSequentialFile(const std::string& path, const vfs::OpenOptions& opts,
                                    std::unique_ptr<vfs::SequentialFile>* file) {
  std::unique_ptr<vfs::SequentialFile> base;
  Status s = base_.NewSequentialFile(path, opts, &base);
  if (!s.ok()) return s;
  const FileClass cls = ClassifyPath(path);
  *file = std::make_unique<TimedSequentialFile>(
      std::move(base), cls, counters_->by_class[static_cast<size_t>(cls)],
      tracer_.load(kRelaxed));
  return s;
}

Status TimingVfs::OpenFileHandle(const std::string& path, bool create,
                                 const vfs::OpenOptions& opts,
                                 std::unique_ptr<vfs::FileHandle>* file) {
  return base_.OpenFileHandle(path, create, opts, file);
}

bool TimingVfs::FileExists(const std::string& path) { return base_.FileExists(path); }

Status TimingVfs::GetFileSize(const std::string& path, uint64_t* size) {
  return base_.GetFileSize(path, size);
}

Status TimingVfs::RemoveFile(const std::string& path) { return base_.RemoveFile(path); }

Status TimingVfs::RenameFile(const std::string& from, const std::string& to) {
  return base_.RenameFile(from, to);
}

Status TimingVfs::CreateDir(const std::string& path) { return base_.CreateDir(path); }

Status TimingVfs::ListDir(const std::string& path, std::vector<std::string>* out) {
  return base_.ListDir(path, out);
}

}  // namespace lsmio_bench
