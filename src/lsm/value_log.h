// Value log: WAL-time key/value separation for checkpoint-sized values
// (BVLSM-style). Values at least Options::value_log_threshold bytes long
// are appended to append-only blob segments (NNNNNN.blob) at group-commit
// time and the LSM keeps only a (segment, offset, length) pointer under
// the key — flush and compaction then move pointers, not megabytes.
//
// Segment record format (after FreEBS lsvd's checksummed data records):
//
//   fixed32   masked crc32c of everything after this field
//   varint32  key length
//   varint32  value length
//   key bytes
//   value bytes
//
// A ValuePointer addresses the whole record (offset = record start,
// length = full record size), so every read re-verifies the checksum and
// the stored key, and GC can recover (key, value) pairs by scanning.
//
// Durability contract: a pointer is only WAL-logged/acked after the blob
// bytes it references are at least as durable as the WAL record (the
// writer syncs the blob segment before syncing the WAL; flush syncs it
// before installing an SST). Rotation syncs a segment before sealing it,
// so Sync() only ever has to touch the active segment.
//
// Garbage collection: compactions maintain per-segment live-bytes
// counters (persisted in the manifest). When a sealed segment's garbage
// ratio crosses Options::value_log_gc_garbage_ratio, compactions relocate
// its surviving values into the active segment, re-emitting the pointer
// under the entry's ORIGINAL sequence number — snapshot readers resolve
// the relocated entry identically, which is what makes GC snapshot-safe.
// A segment whose live bytes reach zero is sealed with weak references to
// every superseded Version that might still hold old pointers and its
// file is deleted once all of them expire.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "lsm/cache.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/options.h"

namespace lsmio::vfs {
class Vfs;
class WritableFile;
class RandomAccessFile;
}  // namespace lsmio::vfs

namespace lsmio::lsm {

/// Location of one record inside a blob segment.
struct ValuePointer {
  uint64_t segment = 0;  // blob segment file number
  uint64_t offset = 0;   // byte offset of the record header
  uint64_t length = 0;   // full record length (header + key + value)
};

/// Pointer encoding stored as the entry value under a kValuePointer tag:
/// varint64 segment | varint64 offset | varint64 length. ValueLog owns the
/// format: every other module hands it the encoded pointer.
void EncodeValuePointer(std::string* dst, const ValuePointer& ptr);
/// Decodes a pointer; requires the input to be exactly one pointer.
bool DecodeValuePointer(Slice input, ValuePointer* ptr);

/// Per-segment accounting persisted in the manifest.
struct BlobSegmentMeta {
  uint64_t number = 0;
  uint64_t total_bytes = 0;  // record bytes appended over the segment's life
  uint64_t live_bytes = 0;   // bytes still referenced by the newest LSM state
};

/// One store's (or one shard's) blob segments: WAL-time separation,
/// appender, reader with a bounded cache of open segment handles,
/// per-segment accounting and GC bookkeeping. Thread-safe; appends are
/// internally serialized (the group-commit leader and compaction
/// relocation share the appender).
class ValueLog {
 public:
  ValueLog(const Options& options, std::string dbname, vfs::Vfs* fs);
  ~ValueLog();

  ValueLog(const ValueLog&) = delete;
  ValueLog& operator=(const ValueLog&) = delete;

  /// Seeds the registry from manifest-recovered metas plus any on-disk
  /// segment files the manifest does not know about (adopted conservatively
  /// as fully live, e.g. the active-at-crash segment). The next append
  /// always starts a fresh segment, so a torn tail from a crash is never
  /// appended to.
  Status Open(const std::vector<BlobSegmentMeta>& recovered) EXCLUDES(mu_);

  /// Appends one record and returns its location. `gc_rewrite` selects the
  /// stats counter the value bytes are charged to.
  Status Append(const Slice& user_key, const Slice& value, bool gc_rewrite,
                ValuePointer* out) EXCLUDES(mu_);

  /// WAL-time separation of one write group. When some Put value in
  /// `batch` reaches Options::value_log_threshold, appends each such value
  /// and sets *out to `scratch`, refilled with `batch`'s ops in order and
  /// each large value's op rewritten as a pointer, so the group's sequence
  /// numbering is unchanged. Otherwise (and with the threshold 0) *out is
  /// `batch`, untouched.
  Status Separate(WriteBatch* batch, WriteBatch* scratch, WriteBatch** out)
      EXCLUDES(mu_);

  /// Durability barrier: fsyncs the active segment iff it has unsynced
  /// bytes. Rotated segments were synced when sealed.
  Status Sync() EXCLUDES(mu_);

  // --- read path -----------------------------------------------------------

  /// One pointer to resolve: the encoded pointer, the user key it is
  /// stored under, and where the value (when `value` is not null) and the
  /// outcome go. `pointer` may live in *value.
  struct Request {
    Slice pointer;
    Slice user_key;
    std::string* value = nullptr;
    Status* status = nullptr;
  };

  /// Decodes every pointer of `reqs` before writing any value, then
  /// resolves them in (segment, offset) order. A record joins the current
  /// run when it starts at or before the run's end and the run stays within
  /// 1 MiB; each run is one VFS read, and each record is verified from the
  /// shared buffer: its checksum, its framing, and that it was written for
  /// `user_key`. A pointer that does not decode, or a record that fails a
  /// check, is Corruption. WAL replay uses the key check to drop pointers
  /// whose blob bytes did not survive a crash (only unacknowledged writes
  /// can be in that state).
  void ReadValues(std::span<const Request> reqs) const;
  /// ReadValues for one pointer.
  Status ReadValue(const Slice& pointer, const Slice& user_key,
                   std::string* value) const;

  /// The blob segment an encoded pointer names; false when `pointer` does
  /// not decode.
  static bool PointerSegment(const Slice& pointer, uint64_t* segment);

  // --- accounting & GC -----------------------------------------------------

  /// True if `segment` is registered (RemoveObsoleteFiles keeps such files).
  [[nodiscard]] bool Contains(uint64_t segment) const EXCLUDES(mu_);

  /// One compaction's side of the value log. The compaction hands it each
  /// entry it drops or keeps: a dropped pointer's record becomes garbage,
  /// and a kept pointer into a GC segment is relocated. With a null value
  /// log every call is a no-op.
  class Compaction {
   public:
    /// `gc_segments`: the segments whose live records are relocated.
    Compaction(ValueLog* vlog, std::vector<uint64_t> gc_segments);

    /// The compaction drops the entry.
    void Drop(const ParsedInternalKey& ikey, const Slice& value);
    /// The compaction keeps the entry; returns the value to write. A
    /// pointer into a GC segment has its record copied to the active
    /// segment, and the new pointer is returned under the same internal
    /// key, so snapshot visibility is unchanged; it stays valid until the
    /// next call. If the copy fails, the old pointer is kept and the
    /// segment stays pinned until a later compaction.
    Slice Keep(const ParsedInternalKey& ikey, const Slice& value);
    /// Makes relocated records durable: their old copies live in segments
    /// that drain and get deleted. Call before installing the outputs.
    Status Sync();
    /// Charges the dropped and relocated records to their segments' live
    /// bytes. Call under the DB mutex right before the manifest record of
    /// the install, which snapshots the per-segment live bytes.
    void ApplyGarbage();

   private:
    ValueLog* const vlog_;
    const std::vector<uint64_t> gc_segments_;
    std::map<uint64_t, uint64_t> garbage_;  // segment -> record bytes
    bool relocated_ = false;
    std::string blob_value_;  // a relocated record's value
    std::string pointer_;     // Keep's rewritten pointer
  };

  /// Sealed-segment GC candidates: not active, live > 0, garbage ratio at
  /// least Options::value_log_gc_garbage_ratio.
  [[nodiscard]] std::vector<uint64_t> GcCandidates() const EXCLUDES(mu_);

  /// Every registered segment's accounting, for the manifest snapshot.
  [[nodiscard]] std::vector<BlobSegmentMeta> LiveSegments() const EXCLUDES(mu_);

  /// Seals every drained segment (live == 0, not the active one): records
  /// `guards` — weak references to the superseded Versions that may still
  /// hold pointers into it — and schedules the file for deletion once all
  /// guards expire.
  void SealDrained(const std::vector<std::weak_ptr<const void>>& guards)
      EXCLUDES(mu_);

  /// Deletes sealed segments whose guards have all expired; returns the
  /// number of files removed.
  int SweepDeletable() EXCLUDES(mu_);

  /// Sets the value_log_* statistics other than
  /// value_log_separated_batches, which the write path counts.
  void FillStats(DbStats* stats) const EXCLUDES(mu_);

 private:
  struct SegmentState {
    uint64_t total = 0;
    uint64_t live = 0;
    bool sealed = false;
    std::vector<std::weak_ptr<const void>> guards;
  };

  Status EnsureActiveLocked() REQUIRES(mu_);
  Status RotateLocked() REQUIRES(mu_);

  /// Returns the pinned, cached-or-opened read handle of `segment`; the
  /// caller releases it through handles_.
  Status FindSegment(uint64_t segment, Cache::Handle** handle) const;

  const Options options_;
  const std::string dbname_;
  vfs::Vfs* const fs_;

  mutable Mutex mu_;
  Status io_error_ GUARDED_BY(mu_);  // latched on sync failure
  uint64_t next_segment_number_ GUARDED_BY(mu_) = 1;
  std::unique_ptr<vfs::WritableFile> active_file_ GUARDED_BY(mu_);
  uint64_t active_number_ GUARDED_BY(mu_) = 0;
  uint64_t active_size_ GUARDED_BY(mu_) = 0;
  uint64_t active_synced_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, SegmentState> segments_ GUARDED_BY(mu_);
  uint64_t bytes_written_ GUARDED_BY(mu_) = 0;
  uint64_t gc_rewritten_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t segments_deleted_ GUARDED_BY(mu_) = 0;

  // Open segment read handles keyed by segment number, each charged 1; a
  // reader pins its handle for one run read, so eviction never closes a
  // file under it.
  const std::unique_ptr<Cache> handles_;
};

}  // namespace lsmio::lsm
