#include "vfs/trace_vfs.h"

namespace lsmio::vfs {
namespace {

class TracedWritable final : public WritableFile {
 public:
  TracedWritable(std::unique_ptr<WritableFile> inner, TraceContext& ctx, int rank,
                 uint32_t file_id)
      : inner_(std::move(inner)), ctx_(ctx), rank_(rank), file_id_(file_id) {}

  ~TracedWritable() override {
    if (!closed_) {
      // Record the implicit close so the MDS sees a balanced open/close.
      ctx_.Record(rank_, IoOp{IoOpKind::kClose, file_id_, 0, 0});
    }
  }

  Status Append(const Slice& data) override {
    const uint64_t offset = inner_->Size();
    Status s = inner_->Append(data);
    if (s.ok()) ctx_.Record(rank_, IoOp{IoOpKind::kWrite, file_id_, offset, data.size()});
    return s;
  }

  Status Flush() override { return inner_->Flush(); }

  Status Sync() override {
    Status s = inner_->Sync();
    if (s.ok()) ctx_.Record(rank_, IoOp{IoOpKind::kSync, file_id_, 0, 0});
    return s;
  }

  Status Close() override {
    Status s = inner_->Close();
    if (!closed_) {
      closed_ = true;
      ctx_.Record(rank_, IoOp{IoOpKind::kClose, file_id_, 0, 0});
    }
    return s;
  }

  uint64_t Size() const override { return inner_->Size(); }

 private:
  std::unique_ptr<WritableFile> inner_;
  TraceContext& ctx_;
  int rank_;
  uint32_t file_id_;
  bool closed_ = false;
};

class TracedRandom final : public RandomAccessFile {
 public:
  TracedRandom(std::unique_ptr<RandomAccessFile> inner, TraceContext& ctx, int rank,
               uint32_t file_id)
      : inner_(std::move(inner)), ctx_(ctx), rank_(rank), file_id_(file_id) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              std::string* scratch) const override {
    Status s = inner_->Read(offset, n, result, scratch);
    if (s.ok()) {
      ctx_.Record(rank_, IoOp{IoOpKind::kRead, file_id_, offset, result->size()});
    }
    return s;
  }

  uint64_t Size() const override { return inner_->Size(); }

 private:
  std::unique_ptr<RandomAccessFile> inner_;
  TraceContext& ctx_;
  int rank_;
  uint32_t file_id_;
};

class TracedSequential final : public SequentialFile {
 public:
  TracedSequential(std::unique_ptr<SequentialFile> inner, TraceContext& ctx,
                   int rank, uint32_t file_id)
      : inner_(std::move(inner)), ctx_(ctx), rank_(rank), file_id_(file_id) {}

  Status Read(size_t n, Slice* result, std::string* scratch) override {
    Status s = inner_->Read(n, result, scratch);
    if (s.ok() && !result->empty()) {
      ctx_.Record(rank_, IoOp{IoOpKind::kRead, file_id_, pos_, result->size()});
      pos_ += result->size();
    }
    return s;
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return inner_->Skip(n);
  }

 private:
  std::unique_ptr<SequentialFile> inner_;
  TraceContext& ctx_;
  int rank_;
  uint32_t file_id_;
  uint64_t pos_ = 0;
};

class TracedHandle final : public FileHandle {
 public:
  TracedHandle(std::unique_ptr<FileHandle> inner, TraceContext& ctx, int rank,
               uint32_t file_id)
      : inner_(std::move(inner)), ctx_(ctx), rank_(rank), file_id_(file_id) {}

  ~TracedHandle() override {
    if (!closed_) ctx_.Record(rank_, IoOp{IoOpKind::kClose, file_id_, 0, 0});
  }

  Status WriteAt(uint64_t offset, const Slice& data) override {
    Status s = inner_->WriteAt(offset, data);
    if (s.ok()) ctx_.Record(rank_, IoOp{IoOpKind::kWrite, file_id_, offset, data.size()});
    return s;
  }

  Status ReadAt(uint64_t offset, size_t n, Slice* result,
                std::string* scratch) override {
    Status s = inner_->ReadAt(offset, n, result, scratch);
    if (s.ok()) {
      ctx_.Record(rank_, IoOp{IoOpKind::kRead, file_id_, offset, result->size()});
    }
    return s;
  }

  Status Sync() override {
    Status s = inner_->Sync();
    if (s.ok()) ctx_.Record(rank_, IoOp{IoOpKind::kSync, file_id_, 0, 0});
    return s;
  }

  Status Truncate(uint64_t size) override {
    Status s = inner_->Truncate(size);
    if (s.ok()) ctx_.Record(rank_, IoOp{IoOpKind::kStat, file_id_, 0, 0});
    return s;
  }

  Status Close() override {
    Status s = inner_->Close();
    if (!closed_) {
      closed_ = true;
      ctx_.Record(rank_, IoOp{IoOpKind::kClose, file_id_, 0, 0});
    }
    return s;
  }

  uint64_t Size() const override { return inner_->Size(); }

 private:
  std::unique_ptr<FileHandle> inner_;
  TraceContext& ctx_;
  int rank_;
  uint32_t file_id_;
  bool closed_ = false;
};

}  // namespace

Status TraceVfs::NewWritableFile(const std::string& path, const OpenOptions& opts,
                                 std::unique_ptr<WritableFile>* file) {
  std::unique_ptr<WritableFile> inner;
  LSMIO_RETURN_IF_ERROR(base_.NewWritableFile(path, opts, &inner));
  const uint32_t id = ctx_.InternFile(path);
  Record(IoOpKind::kCreate, id, 0, 0);
  *file = std::make_unique<TracedWritable>(std::move(inner), ctx_, rank_, id);
  return Status::OK();
}

Status TraceVfs::NewRandomAccessFile(const std::string& path, const OpenOptions& opts,
                                     std::unique_ptr<RandomAccessFile>* file) {
  std::unique_ptr<RandomAccessFile> inner;
  LSMIO_RETURN_IF_ERROR(base_.NewRandomAccessFile(path, opts, &inner));
  const uint32_t id = ctx_.InternFile(path);
  Record(IoOpKind::kOpen, id, 0, 0);
  *file = std::make_unique<TracedRandom>(std::move(inner), ctx_, rank_, id);
  return Status::OK();
}

Status TraceVfs::NewSequentialFile(const std::string& path, const OpenOptions& opts,
                                   std::unique_ptr<SequentialFile>* file) {
  std::unique_ptr<SequentialFile> inner;
  LSMIO_RETURN_IF_ERROR(base_.NewSequentialFile(path, opts, &inner));
  const uint32_t id = ctx_.InternFile(path);
  Record(IoOpKind::kOpen, id, 0, 0);
  *file = std::make_unique<TracedSequential>(std::move(inner), ctx_, rank_, id);
  return Status::OK();
}

Status TraceVfs::OpenFileHandle(const std::string& path, bool create,
                                const OpenOptions& opts,
                                std::unique_ptr<FileHandle>* file) {
  const bool existed = base_.FileExists(path);
  std::unique_ptr<FileHandle> inner;
  LSMIO_RETURN_IF_ERROR(base_.OpenFileHandle(path, create, opts, &inner));
  const uint32_t id = ctx_.InternFile(path);
  Record(existed ? IoOpKind::kOpen : IoOpKind::kCreate, id, 0, 0);
  *file = std::make_unique<TracedHandle>(std::move(inner), ctx_, rank_, id);
  return Status::OK();
}

bool TraceVfs::FileExists(const std::string& path) {
  const bool exists = base_.FileExists(path);
  Record(IoOpKind::kStat, ctx_.InternFile(path), 0, 0);
  return exists;
}

Status TraceVfs::GetFileSize(const std::string& path, uint64_t* size) {
  Record(IoOpKind::kStat, ctx_.InternFile(path), 0, 0);
  return base_.GetFileSize(path, size);
}

Status TraceVfs::RemoveFile(const std::string& path) {
  Record(IoOpKind::kRemove, ctx_.InternFile(path), 0, 0);
  return base_.RemoveFile(path);
}

Status TraceVfs::RenameFile(const std::string& from, const std::string& to) {
  Record(IoOpKind::kRename, ctx_.InternFile(from), 0, 0);
  ctx_.InternFile(to);
  return base_.RenameFile(from, to);
}

Status TraceVfs::CreateDir(const std::string& path) {
  Record(IoOpKind::kStat, ctx_.InternFile(path), 0, 0);
  return base_.CreateDir(path);
}

Status TraceVfs::ListDir(const std::string& path, std::vector<std::string>* out) {
  Record(IoOpKind::kStat, ctx_.InternFile(path), 0, 0);
  return base_.ListDir(path, out);
}

}  // namespace lsmio::vfs
