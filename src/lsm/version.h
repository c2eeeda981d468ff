// Version management: which SSTables exist at which level, persisted to a
// manifest. A Version is an immutable snapshot of the file layout; the
// VersionSet installs new Versions as flushes/compactions complete and
// journals each new state as a full-snapshot manifest record (simple and
// robust at checkpoint-workload file counts).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/synchronization.h"
#include "common/status.h"
#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/value_log.h"
#include "vfs/vfs.h"

namespace lsmio::lsm {

namespace log {
class Writer;
}

class TableCache;

inline constexpr int kNumLevels = 7;

/// Score floor L0 jumps to once the slowdown trigger is crossed: high
/// enough that no byte-budget score of a deeper level can outrank it
/// (levels rarely exceed ~10x their budget; this is orders beyond that).
inline constexpr double kL0PressureScore = 1000.0;

/// Byte budget of level L: max_bytes_for_level_base * 10^(L-1).
uint64_t MaxBytesForLevel(const Options& options, int level);

struct FileMetaData {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest;  // internal key
  std::string largest;   // internal key
  /// Blob segments referenced by this table's kValuePointer entries
  /// (sorted, unique). Lets value-log GC find the tables that still pin a
  /// mostly-garbage segment. Empty for stores without a value log.
  std::vector<uint64_t> blob_refs;
};

/// A user-key range [begin, end]; a null bound is unbounded on that side.
struct KeyRange {
  const Slice* begin = nullptr;
  const Slice* end = nullptr;
};

/// One compaction, as Version::PickCompaction chose it: `inputs` at
/// `level` and `next_inputs` at `output_level` merge into new tables at
/// `output_level`. level < 0: nothing to compact.
struct CompactionPick {
  int level = -1;
  int output_level = -1;
  std::vector<FileMetaData> inputs;
  std::vector<FileMetaData> next_inputs;
  /// No level below output_level holds a file, so a tombstone older than
  /// every snapshot hides nothing and can be dropped.
  bool bottommost = false;
};

/// Immutable snapshot of the table layout, shared_ptr-owned by readers.
class Version {
 public:
  explicit Version(const InternalKeyComparator* icmp) : icmp_(icmp) {}

  /// Files per level. L0 is ordered newest-first (descending file number);
  /// each of L1+ is one sorted run: sorted by smallest key, and no two
  /// files share a user key.
  std::vector<FileMetaData> files[kNumLevels];

  /// One key of a lookup flowing through the level search (a point Get is
  /// a batch of one). The caller owns the lkey/value/status storage; a
  /// request the walk resolves gets *status (OK, NotFound for a deletion,
  /// or Corruption for an unparsable entry) and `done`, and the caller
  /// answers the rest.
  struct GetRequest {
    const LookupKey* lkey = nullptr;
    std::string* value = nullptr;
    Status* status = nullptr;
    bool done = false;
    /// Set when the resolved entry is a kValuePointer: *value holds the
    /// encoded pointer and the caller must resolve it via the ValueLog.
    bool is_pointer = false;
  };

  /// Looks `reqs` up through the levels, newest first, skipping requests
  /// already done. `reqs` must be sorted ascending by user key. Each table
  /// file is probed once with all the still-unresolved keys that fall
  /// inside it (TableCache::MultiGet), so adjacent keys share index seeks
  /// and coalesced block reads.
  Status MultiGet(const ReadOptions& options, TableCache* table_cache,
                  std::span<GetRequest*> reqs) const;

  /// Appends an iterator per table file to *iters.
  void AddIterators(const ReadOptions& options, TableCache* table_cache,
                    std::vector<Iterator*>* iters) const;

  [[nodiscard]] int NumFiles(int level) const {
    return static_cast<int>(files[level].size());
  }
  [[nodiscard]] uint64_t TotalBytes(int level) const;

  /// Number of table files across all levels.
  [[nodiscard]] int TotalFiles() const;

  /// Compaction priority score for `level`; >= 1.0 means the level wants
  /// compaction. L0 scores by file count against l0_compaction_trigger and
  /// jumps into dominance once l0_slowdown_writes_trigger is crossed —
  /// writers are already being delayed at that point, so L0→L1 must win
  /// over any size-triggered level for the backpressure to self-relieve.
  /// L1+ score by bytes against MaxBytesForLevel.
  [[nodiscard]] double CompactionScore(int level, const Options& options) const;

  /// The eligible level with the highest CompactionScore, or -1 when no
  /// level needs compaction. *score (optional) receives the winning score.
  [[nodiscard]] int PickCompactionLevel(const Options& options,
                                        double* score = nullptr) const;

  /// The files at `level` whose user-key span intersects [begin, end]; a
  /// null bound is unbounded on that side. Keeps the level's order.
  [[nodiscard]] std::vector<FileMetaData> OverlappingFiles(
      int level, const Slice* begin, const Slice* end) const;

  /// Picks the next compaction. The level is, with `manual`, the lowest
  /// one holding a file that overlaps it; else PickCompactionLevel's; else
  /// the lowest one holding a file that pins one of `gc_segments` (blob
  /// segments value-log GC wants drained). One rule per level:
  /// - L0 compacts whole. Its files overlap and reads take the newest
  ///   first, so an older file left behind could shadow the output.
  /// - An L1+ pick is one file (the level's first for size, the first
  ///   overlapping or pinning one otherwise) plus every neighbour that
  ///   shares a user key with it, so the level stays one sorted run.
  /// The output goes to level + 1 together with the files it overlaps
  /// there, under the same neighbour rule; the last level is rewritten in
  /// place.
  [[nodiscard]] CompactionPick PickCompaction(
      const Options& options, const KeyRange* manual,
      const std::vector<uint64_t>& gc_segments) const;

 private:
  /// The files at L1+ `level` that overlap the user-key span of the
  /// non-empty `of`, grown by every file that shares a user key with them.
  [[nodiscard]] std::vector<FileMetaData> OverlappingRun(
      int level, const std::vector<FileMetaData>& of) const;

  const InternalKeyComparator* icmp_;
};

/// Owner of the current Version and the manifest.
///
/// Concurrency contract: a VersionSet has no mutex of its own — every
/// mutating or state-reading method must be called with the *owner's*
/// mutex held (DBImpl::mu_ in the engine). That cross-object requirement
/// is invisible to the static analysis, so it is enforced at runtime
/// instead: SetOwnerMutex installs the guarding mutex, and each entry
/// point calls AssertOwnerHeld (aborting under LSMIO_MUTEX_DEBUG when the
/// caller does not hold it). Standalone users (tests) that never share a
/// VersionSet across threads simply skip SetOwnerMutex.
class VersionSet {
 public:
  VersionSet(std::string dbname, const Options& options,
             const InternalKeyComparator* icmp, TableCache* table_cache);
  ~VersionSet();

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  /// Declares `mu` as the mutex guarding this VersionSet (see class
  /// comment). Call once, before the set is shared across threads.
  void SetOwnerMutex(const Mutex* mu) { owner_mu_ = mu; }

  /// Recovers state from CURRENT/manifest. *save_manifest is set when the
  /// manifest should be rewritten (e.g. it did not exist).
  Status Recover(bool* save_manifest);

  /// Installs `v` as current and journals it. Called with the DB mutex held;
  /// performs I/O.
  Status LogAndApply(std::shared_ptr<Version> v);

  /// Builds a new Version = current + additions - deletions. In every
  /// build type but Release and MinSizeRel, aborts when a table added at
  /// L1+ shares a user key with a neighbour (see Version::files).
  std::shared_ptr<Version> MakeVersion(
      const std::vector<std::pair<int, FileMetaData>>& additions,
      const std::vector<std::pair<int, uint64_t>>& deletions) const;

  [[nodiscard]] std::shared_ptr<Version> current() const {
    AssertOwnerHeld();
    return current_;
  }

  [[nodiscard]] uint64_t NewFileNumber() {
    AssertOwnerHeld();
    return next_file_number_++;
  }
  /// Re-use a file number handed out by NewFileNumber but never used.
  void ReuseFileNumber(uint64_t number) {
    AssertOwnerHeld();
    if (next_file_number_ == number + 1) next_file_number_ = number;
  }

  [[nodiscard]] SequenceNumber LastSequence() const {
    AssertOwnerHeld();
    return last_sequence_;
  }
  void SetLastSequence(SequenceNumber s) {
    AssertOwnerHeld();
    last_sequence_ = s;
  }

  [[nodiscard]] uint64_t LogNumber() const { return log_number_; }
  void SetLogNumber(uint64_t number) {
    AssertOwnerHeld();
    log_number_ = number;
  }

  [[nodiscard]] uint64_t ManifestFileNumber() const { return manifest_file_number_; }

  /// All file numbers referenced by the current version or by any superseded
  /// version a reader still holds (GC keeps these). Readers drop mu_ while
  /// reading table files, so a concurrent flush/compaction install must not
  /// let GC delete the files under them.
  void AddLiveFiles(std::vector<uint64_t>* live) const;

  /// Writes the current state as a manifest snapshot + CURRENT. Used on DB
  /// creation and after recovery.
  Status WriteSnapshot();

  /// Installs the source of blob-segment accounting rows appended to every
  /// manifest snapshot (the store's ValueLog). When unset or when the store
  /// has no segments, snapshots stay byte-for-byte identical to previous
  /// releases (the extension section is omitted entirely).
  void SetBlobSegmentProvider(std::function<std::vector<BlobSegmentMeta>()> p) {
    blob_segment_provider_ = std::move(p);
  }

  /// Blob-segment accounting recovered from the manifest (empty for stores
  /// without a value log). Valid after Recover().
  [[nodiscard]] const std::vector<BlobSegmentMeta>& recovered_blob_segments() const {
    return recovered_blob_segments_;
  }

  /// Weak references to every superseded Version a reader may still hold.
  /// Value-log GC records these when a drained segment is sealed: the
  /// segment file may only be deleted once all of them expire, because old
  /// versions can still contain pointers into it. Prunes expired entries.
  void CollectVersionGuards(std::vector<std::weak_ptr<const void>>* guards) const;

 private:
  std::string EncodeSnapshot() const;
  Status DecodeSnapshot(const Slice& record);
  Status SetCurrentFile(uint64_t manifest_number);

  /// Debug-checks the owner's-mutex contract (no-op when no owner mutex
  /// was installed, or when LSMIO_MUTEX_DEBUG is off).
  void AssertOwnerHeld() const {
    if (owner_mu_ != nullptr) owner_mu_->AssertHeld();
  }

  vfs::Vfs& fs() const;

  std::string dbname_;
  Options options_;
  const InternalKeyComparator* icmp_;
  TableCache* table_cache_;
  const Mutex* owner_mu_ = nullptr;  // installed by SetOwnerMutex

  std::shared_ptr<Version> current_;
  /// Superseded versions that may still be referenced by unlocked readers;
  /// expired entries are pruned during AddLiveFiles.
  mutable std::vector<std::weak_ptr<Version>> retained_;

  uint64_t next_file_number_ = 2;
  uint64_t manifest_file_number_ = 0;
  SequenceNumber last_sequence_ = 0;
  uint64_t log_number_ = 0;

  std::unique_ptr<vfs::WritableFile> manifest_file_;
  std::unique_ptr<log::Writer> manifest_log_;

  std::function<std::vector<BlobSegmentMeta>()> blob_segment_provider_;
  std::vector<BlobSegmentMeta> recovered_blob_segments_;
};

}  // namespace lsmio::lsm
