#include "lsm/value_log.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/inline_vector.h"
#include "common/logging.h"
#include "lsm/dbformat.h"
#include "lsm/write_batch.h"
#include "vfs/vfs.h"

namespace lsmio::lsm {

namespace {

/// crc(4) + key_len(>=1) + value_len(>=1): the smallest parseable record.
constexpr uint64_t kMinRecordSize = 6;
/// Reject absurd pointer lengths before allocating a read buffer.
constexpr uint64_t kMaxRecordSize = 1ULL << 32;
/// Bounded cache of open segment read handles.
constexpr size_t kMaxOpenSegments = 64;

/// Longest run of adjacent records resolved with one read.
constexpr uint64_t kMaxRunBytes = 1 << 20;

/// False when `ptr` cannot address a record: a length no record has, or a
/// record end that wraps.
bool PointerInRange(const ValuePointer& ptr) {
  return ptr.length >= kMinRecordSize && ptr.length <= kMaxRecordSize &&
         ptr.offset <= UINT64_MAX - ptr.length;
}

/// Verifies the checksummed record `rec` and that it was written for
/// `user_key`; on success *value points into `rec`.
Status ParseRecord(const Slice& rec, const Slice& user_key, Slice* value) {
  const uint32_t expected = crc32c::Unmask(DecodeFixed32(rec.data()));
  const uint32_t actual = crc32c::Value(rec.data() + 4, rec.size() - 4);
  if (actual != expected) {
    return Status::Corruption("blob record checksum mismatch");
  }
  Slice in(rec.data() + 4, rec.size() - 4);
  uint32_t klen = 0;
  uint32_t vlen = 0;
  if (!GetVarint32(&in, &klen) || !GetVarint32(&in, &vlen)) {
    return Status::Corruption("blob record header malformed");
  }
  if (in.size() != static_cast<uint64_t>(klen) + vlen) {
    return Status::Corruption("blob record length mismatch");
  }
  if (Slice(in.data(), klen) != user_key) {
    return Status::Corruption("blob record key mismatch");
  }
  *value = Slice(in.data() + klen, vlen);
  return Status::OK();
}

void DeleteSegmentFile(const Slice&, void* value) {
  delete static_cast<vfs::RandomAccessFile*>(value);
}

/// handles_ key of `segment`.
std::string SegmentKey(uint64_t segment) {
  std::string key;
  PutFixed64(&key, segment);
  return key;
}

}  // namespace

void EncodeValuePointer(std::string* dst, const ValuePointer& ptr) {
  PutVarint64(dst, ptr.segment);
  PutVarint64(dst, ptr.offset);
  PutVarint64(dst, ptr.length);
}

bool DecodeValuePointer(Slice input, ValuePointer* ptr) {
  return GetVarint64(&input, &ptr->segment) &&
         GetVarint64(&input, &ptr->offset) &&
         GetVarint64(&input, &ptr->length) && input.empty();
}

ValueLog::ValueLog(const Options& options, std::string dbname, vfs::Vfs* fs)
    : options_(options),
      dbname_(std::move(dbname)),
      fs_(fs),
      handles_(NewLRUCache(kMaxOpenSegments)) {}

ValueLog::~ValueLog() {
  MutexLock lock(&mu_);
  if (active_file_ != nullptr) {
    // Best effort: rotated segments were synced when sealed; the active
    // one is synced by the durability barriers that precede any ack.
    active_file_->Close().IgnoreError();
    active_file_.reset();
  }
}

Status ValueLog::Open(const std::vector<BlobSegmentMeta>& recovered) {
  MutexLock lock(&mu_);
  uint64_t max_number = 0;
  for (const BlobSegmentMeta& meta : recovered) {
    max_number = std::max(max_number, meta.number);
    if (!fs_->FileExists(BlobFileName(dbname_, meta.number))) {
      // Deleted before the crash; the manifest record simply predates the
      // deletion. Pointers into it cannot exist (deletion requires zero
      // live bytes and no in-flight readers).
      continue;
    }
    SegmentState& seg = segments_[meta.number];
    seg.total = meta.total_bytes;
    seg.live = meta.live_bytes;
  }
  // Adopt on-disk segments the manifest does not know about (the segment
  // that was active at crash time, or records appended after the last
  // manifest write). Fully-live is conservative: it can only delay GC.
  std::vector<std::string> names;
  Status s = fs_->ListDir(dbname_, &names);
  if (!s.ok()) return s;
  for (const std::string& name : names) {
    uint64_t number = 0;
    FileType type = FileType::kUnknown;
    if (!ParseFileName(name, &number, &type) || type != FileType::kBlobFile) {
      continue;
    }
    max_number = std::max(max_number, number);
    if (segments_.count(number) != 0) continue;
    uint64_t size = 0;
    if (!fs_->GetFileSize(dbname_ + "/" + name, &size).ok()) size = 0;
    SegmentState& seg = segments_[number];
    seg.total = size;
    seg.live = size;
  }
  // Segments already drained when we crashed: delete as soon as swept.
  for (auto& [number, seg] : segments_) {
    (void)number;
    if (seg.live == 0) seg.sealed = true;
  }
  next_segment_number_ = max_number + 1;
  return Status::OK();
}

Status ValueLog::EnsureActiveLocked() {
  if (active_file_ != nullptr) return Status::OK();
  const uint64_t number = next_segment_number_++;
  std::unique_ptr<vfs::WritableFile> file;
  Status s = fs_->NewWritableFile(BlobFileName(dbname_, number), {}, &file);
  if (!s.ok()) return s;
  active_file_ = std::move(file);
  active_number_ = number;
  active_size_ = 0;
  active_synced_ = 0;
  segments_[number];  // total = live = 0 until records land
  return Status::OK();
}

Status ValueLog::RotateLocked() {
  if (active_file_ == nullptr) return Status::OK();
  // Sync before sealing so Sync() only ever has to cover the active
  // segment; a sealed segment's bytes are always durable.
  Status s = active_file_->Sync();
  if (s.ok()) s = active_file_->Close();
  active_file_.reset();
  if (!s.ok()) io_error_ = s;
  // A read handle opened while the segment grew maps only a prefix of it
  // (reads past that prefix fall back to pread); the next read maps it all.
  handles_->Erase(SegmentKey(active_number_));
  return s;
}

Status ValueLog::Append(const Slice& user_key, const Slice& value,
                        bool gc_rewrite, ValuePointer* out) {
  MutexLock lock(&mu_);
  if (!io_error_.ok()) return io_error_;
  Status s = EnsureActiveLocked();
  if (!s.ok()) return s;

  std::string rec(4, '\0');  // crc placeholder
  PutVarint32(&rec, static_cast<uint32_t>(user_key.size()));
  PutVarint32(&rec, static_cast<uint32_t>(value.size()));
  rec.append(user_key.data(), user_key.size());
  rec.append(value.data(), value.size());
  EncodeFixed32(rec.data(), crc32c::Mask(crc32c::Value(rec.data() + 4, rec.size() - 4)));

  out->segment = active_number_;
  out->offset = active_size_;
  out->length = rec.size();

  s = active_file_->Append(rec);
  if (!s.ok()) {
    // A partial write may have reached the file, so our offset bookkeeping
    // can no longer be trusted: abandon the segment (its tail becomes
    // unreferenced garbage) and let the next append start a fresh one.
    // The Append error in `s` is the root cause; a close error adds nothing.
    active_file_->Close().IgnoreError();
    active_file_.reset();
    return s;
  }
  active_size_ += rec.size();
  SegmentState& seg = segments_[active_number_];
  seg.total += rec.size();
  seg.live += rec.size();
  if (gc_rewrite) {
    gc_rewritten_bytes_ += value.size();
  } else {
    bytes_written_ += value.size();
  }
  if (active_size_ >= options_.value_log_segment_size) {
    return RotateLocked();
  }
  return Status::OK();
}

Status ValueLog::Separate(WriteBatch* batch, WriteBatch* scratch, WriteBatch** out) {
  *out = batch;
  const uint64_t threshold = options_.value_log_threshold;
  if (threshold == 0) return Status::OK();  // a store with old segments only
  const auto large = [threshold](const WriteBatch::Op& op) {
    return op.type == ValueType::kValue && op.value.size() >= threshold;
  };
  WriteBatch::Op op;
  bool any = false;
  for (WriteBatch::Reader scan(*batch); !any && scan.Next(&op);) any = large(op);
  if (!any) return Status::OK();

  *out = scratch;
  scratch->Clear();
  scratch->SetSequence(batch->Sequence());
  std::string encoded;
  WriteBatch::Reader reader(*batch);
  while (reader.Next(&op)) {
    if (!large(op)) {
      scratch->Add(op);
      continue;
    }
    ValuePointer ptr;
    LSMIO_RETURN_IF_ERROR(Append(op.key, op.value, /*gc_rewrite=*/false, &ptr));
    encoded.clear();
    EncodeValuePointer(&encoded, ptr);
    scratch->PutPointer(op.key, encoded);
  }
  return reader.status();
}

Status ValueLog::Sync() {
  MutexLock lock(&mu_);
  if (!io_error_.ok()) return io_error_;
  if (active_file_ == nullptr || active_synced_ == active_size_) {
    return Status::OK();
  }
  Status s = active_file_->Sync();
  if (s.ok()) {
    active_synced_ = active_size_;
  } else {
    // Durable prefix unknown: fail every later append/sync; the store
    // latches read-only via RecordBackgroundError anyway.
    io_error_ = s;
  }
  return s;
}

Status ValueLog::FindSegment(uint64_t segment, Cache::Handle** handle) const {
  const std::string key = SegmentKey(segment);
  *handle = handles_->Lookup(key);
  if (*handle != nullptr) return Status::OK();
  std::unique_ptr<vfs::RandomAccessFile> file;
  vfs::OpenOptions opts;
  opts.use_mmap = options_.use_mmap;
  LSMIO_RETURN_IF_ERROR(fs_->NewRandomAccessFile(BlobFileName(dbname_, segment), opts, &file));
  *handle = handles_->Insert(key, file.release(), 1, DeleteSegmentFile);
  return Status::OK();
}

void ValueLog::ReadValues(std::span<const Request> reqs) const {
  // Decode every pointer first: a caller's pointer may live in the string
  // that receives its value.
  struct Located {
    ValuePointer ptr;
    const Request* req;
  };
  InlineVector<Located, 4> located;
  for (const Request& req : reqs) {
    Located at{{}, &req};
    if (!DecodeValuePointer(req.pointer, &at.ptr)) {
      *req.status = Status::Corruption("unresolvable value-log pointer");
    } else if (!PointerInRange(at.ptr)) {
      *req.status = Status::Corruption("blob pointer out of range");
    } else {
      located.push_back(at);
    }
  }
  std::sort(located.begin(), located.end(), [](const Located& a, const Located& b) {
    if (a.ptr.segment != b.ptr.segment) return a.ptr.segment < b.ptr.segment;
    return a.ptr.offset < b.ptr.offset;
  });
  std::string buffer;
  for (size_t i = 0; i < located.size();) {
    const ValuePointer& first = located[i].ptr;
    uint64_t end = first.offset + first.length;
    size_t k = i + 1;
    for (; k < located.size(); ++k) {
      const ValuePointer& next = located[k].ptr;
      if (next.segment != first.segment || next.offset > end ||
          std::max(end, next.offset + next.length) - first.offset > kMaxRunBytes) {
        break;
      }
      end = std::max(end, next.offset + next.length);
    }
    Cache::Handle* handle = nullptr;
    Slice run;
    Status s = FindSegment(first.segment, &handle);
    if (s.IsNotFound()) {
      // Segments are deleted only once no reachable pointer names them.
      s = Status::Corruption("blob segment missing: " + BlobFileName(dbname_, first.segment));
    }
    if (s.ok()) {
      s = static_cast<vfs::RandomAccessFile*>(handles_->Value(handle))
              ->Read(first.offset, static_cast<size_t>(end - first.offset), &run, &buffer);
    }
    for (; i < k; ++i) {
      const ValuePointer& ptr = located[i].ptr;
      const Request& req = *located[i].req;
      const uint64_t at = ptr.offset - first.offset;
      Slice value;
      Status rs = s;
      if (rs.ok()) {
        // A run can end short at the segment's end; only records it holds
        // whole resolve.
        rs = at + ptr.length > run.size()
                 ? Status::Corruption("blob record truncated")
                 : ParseRecord(Slice(run.data() + at, ptr.length), req.user_key, &value);
      }
      if (rs.ok() && req.value != nullptr) req.value->assign(value.data(), value.size());
      *req.status = rs;
    }
    // Unpinned only now: the run may point into the file's mmap'd bytes.
    if (handle != nullptr) handles_->Release(handle);
  }
}

Status ValueLog::ReadValue(const Slice& pointer, const Slice& user_key,
                           std::string* value) const {
  Status s;
  const Request req{pointer, user_key, value, &s};
  ReadValues({&req, 1});
  return s;
}

bool ValueLog::PointerSegment(const Slice& pointer, uint64_t* segment) {
  ValuePointer ptr;
  if (!DecodeValuePointer(pointer, &ptr)) return false;
  *segment = ptr.segment;
  return true;
}

bool ValueLog::Contains(uint64_t segment) const {
  MutexLock lock(&mu_);
  return segments_.count(segment) != 0;
}

ValueLog::Compaction::Compaction(ValueLog* vlog, std::vector<uint64_t> gc_segments)
    : vlog_(vlog), gc_segments_(std::move(gc_segments)) {}

void ValueLog::Compaction::Drop(const ParsedInternalKey& ikey, const Slice& value) {
  ValuePointer ptr;
  if (vlog_ != nullptr && ikey.type == ValueType::kValuePointer &&
      DecodeValuePointer(value, &ptr)) {
    garbage_[ptr.segment] += ptr.length;
  }
}

Slice ValueLog::Compaction::Keep(const ParsedInternalKey& ikey, const Slice& value) {
  ValuePointer ptr;
  if (vlog_ == nullptr || ikey.type != ValueType::kValuePointer ||
      !DecodeValuePointer(value, &ptr) ||
      std::find(gc_segments_.begin(), gc_segments_.end(), ptr.segment) == gc_segments_.end()) {
    return value;
  }
  ValuePointer moved;
  Status s = vlog_->ReadValue(value, ikey.user_key, &blob_value_);
  if (s.ok()) s = vlog_->Append(ikey.user_key, blob_value_, /*gc_rewrite=*/true, &moved);
  if (!s.ok()) {
    LSMIO_WARN << "value-log GC relocation failed (segment " << ptr.segment
               << "): " << s.ToString();
    return value;
  }
  garbage_[ptr.segment] += ptr.length;
  relocated_ = true;
  pointer_.clear();
  EncodeValuePointer(&pointer_, moved);
  return pointer_;
}

Status ValueLog::Compaction::Sync() { return relocated_ ? vlog_->Sync() : Status::OK(); }

void ValueLog::Compaction::ApplyGarbage() {
  if (garbage_.empty()) return;
  MutexLock lock(&vlog_->mu_);
  for (const auto& [number, bytes] : garbage_) {
    auto it = vlog_->segments_.find(number);
    if (it == vlog_->segments_.end()) continue;
    it->second.live = it->second.live >= bytes ? it->second.live - bytes : 0;
  }
}

std::vector<uint64_t> ValueLog::GcCandidates() const {
  MutexLock lock(&mu_);
  std::vector<uint64_t> out;
  for (const auto& [number, seg] : segments_) {
    if (seg.sealed || seg.live == 0 || seg.total == 0) continue;
    if (active_file_ != nullptr && number == active_number_) continue;
    const double garbage_ratio =
        1.0 - static_cast<double>(seg.live) / static_cast<double>(seg.total);
    if (garbage_ratio >= options_.value_log_gc_garbage_ratio) {
      out.push_back(number);
    }
  }
  return out;
}

std::vector<BlobSegmentMeta> ValueLog::LiveSegments() const {
  MutexLock lock(&mu_);
  std::vector<BlobSegmentMeta> out;
  out.reserve(segments_.size());
  for (const auto& [number, seg] : segments_) {
    out.push_back(BlobSegmentMeta{number, seg.total, seg.live});
  }
  return out;
}

void ValueLog::SealDrained(
    const std::vector<std::weak_ptr<const void>>& guards) {
  MutexLock lock(&mu_);
  for (auto& [number, seg] : segments_) {
    if (seg.sealed || seg.live != 0) continue;
    if (active_file_ != nullptr && number == active_number_) continue;
    seg.sealed = true;
    seg.guards = guards;
  }
}

int ValueLog::SweepDeletable() {
  MutexLock lock(&mu_);
  std::vector<uint64_t> deletable;
  for (const auto& [number, seg] : segments_) {
    if (!seg.sealed) continue;
    bool pinned = false;
    for (const auto& guard : seg.guards) {
      if (!guard.expired()) {
        pinned = true;
        break;
      }
    }
    if (!pinned) deletable.push_back(number);
  }
  for (const uint64_t number : deletable) {
    handles_->Erase(SegmentKey(number));
    // Best effort: once erased from segments_ below, Contains() goes false
    // and the DBImpl orphan sweep reaps any file an EIO leaves behind.
    fs_->RemoveFile(BlobFileName(dbname_, number)).IgnoreError();
    segments_.erase(number);
    ++segments_deleted_;
  }
  return static_cast<int>(deletable.size());
}

void ValueLog::FillStats(DbStats* stats) const {
  MutexLock lock(&mu_);
  stats->value_log_bytes_written = bytes_written_;
  stats->value_log_gc_rewritten_bytes = gc_rewritten_bytes_;
  stats->value_log_segments_deleted = segments_deleted_;
  stats->value_log_segments = segments_.size();
  uint64_t live = 0;
  uint64_t garbage = 0;
  for (const auto& [number, seg] : segments_) {
    (void)number;
    live += seg.live;
    garbage += seg.total >= seg.live ? seg.total - seg.live : 0;
  }
  stats->value_log_live_bytes = live;
  stats->value_log_garbage_bytes = garbage;
}

}  // namespace lsmio::lsm
