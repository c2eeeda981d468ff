#include "lsm/version.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/coding.h"
#include "common/inline_vector.h"
#include "lsm/comparator.h"
#include "lsm/log_reader.h"
#include "lsm/log_writer.h"
#include "lsm/table_cache.h"
#include "vfs/posix_vfs.h"

namespace lsmio::lsm {

// --- Version ---------------------------------------------------------------

uint64_t Version::TotalBytes(int level) const {
  uint64_t total = 0;
  for (const auto& f : files[level]) total += f.file_size;
  return total;
}

int Version::TotalFiles() const {
  int n = 0;
  for (const auto& level_files : files) n += static_cast<int>(level_files.size());
  return n;
}

uint64_t MaxBytesForLevel(const Options& options, int level) {
  uint64_t result = options.max_bytes_for_level_base;
  for (int l = 1; l < level; ++l) result *= 10;
  return result;
}

double Version::CompactionScore(int level, const Options& options) const {
  if (level == 0) {
    const int trigger = std::max(1, options.l0_compaction_trigger);
    double score =
        static_cast<double>(NumFiles(0)) / static_cast<double>(trigger);
    const int soft = options.l0_slowdown_writes_trigger;
    if (soft > 0 && NumFiles(0) >= soft) {
      // Past the slowdown trigger every admitted write is paying a pacing
      // delay: make L0 outrank any byte-overflowing level (which can wait)
      // so the pressure the writers feel is the pressure being relieved.
      score = std::max(score, kL0PressureScore +
                                  static_cast<double>(NumFiles(0) - soft));
    }
    return score;
  }
  return static_cast<double>(TotalBytes(level)) /
         static_cast<double>(MaxBytesForLevel(options, level));
}

int Version::PickCompactionLevel(const Options& options, double* score) const {
  int best_level = -1;
  double best_score = 0.0;
  // L0 triggers at score >= 1 (file count reached the trigger); deeper
  // levels only once strictly over their byte budget. The last level has
  // nowhere to push into, so it is never size-picked (GC rewrites handle
  // it separately).
  if (CompactionScore(0, options) >= 1.0) {
    best_level = 0;
    best_score = CompactionScore(0, options);
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    const double s = CompactionScore(level, options);
    if (s > 1.0 && s > best_score) {
      best_level = level;
      best_score = s;
    }
  }
  if (score != nullptr) *score = best_score;
  return best_level;
}

namespace {

// The user-key span [*lo, *hi] of the non-empty `files`.
void UserKeySpan(const Comparator* ucmp, const std::vector<FileMetaData>& files,
                 std::string* lo, std::string* hi) {
  Slice min = ExtractUserKey(Slice(files[0].smallest));
  Slice max = ExtractUserKey(Slice(files[0].largest));
  for (const auto& f : files) {
    const Slice smallest = ExtractUserKey(Slice(f.smallest));
    const Slice largest = ExtractUserKey(Slice(f.largest));
    if (ucmp->Compare(smallest, min) < 0) min = smallest;
    if (ucmp->Compare(largest, max) > 0) max = largest;
  }
  *lo = min.ToString();
  *hi = max.ToString();
}

}  // namespace

std::vector<FileMetaData> Version::OverlappingFiles(int level, const Slice* begin,
                                                    const Slice* end) const {
  const Comparator* ucmp = icmp_->user_comparator();
  std::vector<FileMetaData> result;
  for (const auto& f : files[level]) {
    if ((begin == nullptr ||
         ucmp->Compare(ExtractUserKey(Slice(f.largest)), *begin) >= 0) &&
        (end == nullptr ||
         ucmp->Compare(ExtractUserKey(Slice(f.smallest)), *end) <= 0)) {
      result.push_back(f);
    }
  }
  return result;
}

std::vector<FileMetaData> Version::OverlappingRun(
    int level, const std::vector<FileMetaData>& of) const {
  // In a sorted run only a neighbour at a boundary can share a user key,
  // and it may share its other boundary with the next file: grow until
  // the span stops growing.
  const Comparator* ucmp = icmp_->user_comparator();
  std::vector<FileMetaData> run;
  std::string lo;
  std::string hi;
  UserKeySpan(ucmp, of, &lo, &hi);
  for (;;) {
    const Slice begin(lo);
    const Slice end(hi);
    std::vector<FileMetaData> grown = OverlappingFiles(level, &begin, &end);
    if (grown.size() == run.size()) return grown;
    run = std::move(grown);
    UserKeySpan(ucmp, run, &lo, &hi);
  }
}

CompactionPick Version::PickCompaction(const Options& options, const KeyRange* manual,
                                       const std::vector<uint64_t>& gc_segments) const {
  CompactionPick pick;
  std::vector<FileMetaData>& inputs = pick.inputs;
  if (manual != nullptr) {
    for (int level = 0; level < kNumLevels && inputs.empty(); ++level) {
      inputs = OverlappingFiles(level, manual->begin, manual->end);
      pick.level = level;
    }
  } else if ((pick.level = PickCompactionLevel(options)) >= 0) {
    inputs.push_back(files[pick.level][0]);
  } else {
    for (int level = 0; level < kNumLevels && inputs.empty(); ++level) {
      for (const auto& f : files[level]) {
        if (std::find_first_of(f.blob_refs.begin(), f.blob_refs.end(),
                               gc_segments.begin(), gc_segments.end()) !=
            f.blob_refs.end()) {
          inputs.push_back(f);
          pick.level = level;
          break;
        }
      }
    }
  }
  if (inputs.empty()) return CompactionPick{};

  inputs = pick.level == 0 ? files[0] : OverlappingRun(pick.level, {inputs[0]});
  pick.output_level = pick.level < kNumLevels - 1 ? pick.level + 1 : pick.level;
  if (pick.output_level > pick.level) {
    pick.next_inputs = OverlappingRun(pick.output_level, inputs);
  }
  pick.bottommost = true;
  for (int level = pick.output_level + 1; level < kNumLevels; ++level) {
    if (!files[level].empty()) pick.bottommost = false;
  }
  return pick;
}

namespace {

// Answers `req` from `ikey`, the first entry at or after its lookup key in
// a table, unless that entry belongs to another user key.
void ResolveFromTable(const Comparator* ucmp, Version::GetRequest* req,
                      const Slice& ikey, const Slice& value) {
  ParsedInternalKey parsed;
  if (!ParseInternalKey(ikey, &parsed)) {
    *req->status = Status::Corruption("corrupted key");
  } else if (ucmp->Compare(parsed.user_key, req->lkey->user_key()) != 0) {
    return;  // a different key: not in this table
  } else if (parsed.type == ValueType::kValue ||
             parsed.type == ValueType::kValuePointer) {
    req->value->assign(value.data(), value.size());
    req->is_pointer = parsed.type == ValueType::kValuePointer;
    *req->status = Status::OK();
  } else {
    *req->status = Status::NotFound("deleted");
  }
  req->done = true;
}

}  // namespace

Status Version::MultiGet(const ReadOptions& options, TableCache* table_cache,
                         std::span<GetRequest*> reqs) const {
  const Comparator* ucmp = icmp_->user_comparator();

  // The requests and keys of one table probe, reused across files; inline
  // for a point lookup, which then allocates nothing here.
  InlineVector<GetRequest*, 8> group;
  InlineVector<Slice, 8> ikeys;
  auto probe_file = [&](const FileMetaData& f) -> Status {
    ikeys.clear();
    for (const GetRequest* req : group) ikeys.push_back(req->lkey->internal_key());
    return table_cache->MultiGet(
        options, f.number, f.file_size, ikeys,
        [&group, ucmp](size_t i, const Slice& ikey, const Slice& value) {
          ResolveFromTable(ucmp, group[i], ikey, value);
        });
  };

  // L0: newest first; each file is probed once with its in-range keys.
  for (const auto& f : files[0]) {
    const Slice smallest = ExtractUserKey(Slice(f.smallest));
    const Slice largest = ExtractUserKey(Slice(f.largest));
    group.clear();
    for (GetRequest* req : reqs) {
      if (req->done) continue;
      const Slice uk = req->lkey->user_key();
      if (ucmp->Compare(uk, smallest) >= 0 && ucmp->Compare(uk, largest) <= 0) {
        group.push_back(req);
      }
    }
    if (!group.empty()) LSMIO_RETURN_IF_ERROR(probe_file(f));
  }

  // L1+: files are sorted and disjoint; binary-search the first key's file,
  // then extend the group with the run of following keys inside it.
  for (int level = 1; level < kNumLevels; ++level) {
    const auto& level_files = files[level];
    if (level_files.empty()) continue;
    size_t i = 0;
    while (i < reqs.size()) {
      GetRequest* req = reqs[i];
      if (req->done) {
        ++i;
        continue;
      }
      const Slice internal_key = req->lkey->internal_key();
      const auto it = std::lower_bound(
          level_files.begin(), level_files.end(), internal_key,
          [this](const FileMetaData& f, const Slice& target) {
            return icmp_->Compare(Slice(f.largest), target) < 0;
          });
      if (it == level_files.end() ||
          ucmp->Compare(req->lkey->user_key(),
                        ExtractUserKey(Slice(it->smallest))) < 0) {
        ++i;
        continue;
      }
      const Slice largest = ExtractUserKey(Slice(it->largest));
      group.clear();
      group.push_back(req);
      size_t j = i + 1;
      for (; j < reqs.size(); ++j) {
        if (ucmp->Compare(reqs[j]->lkey->user_key(), largest) > 0) break;
        if (!reqs[j]->done) group.push_back(reqs[j]);
      }
      LSMIO_RETURN_IF_ERROR(probe_file(*it));
      i = j;
    }
  }
  return Status::OK();
}

void Version::AddIterators(const ReadOptions& options, TableCache* table_cache,
                           std::vector<Iterator*>* iters) const {
  for (const auto& level_files : files) {
    for (const auto& f : level_files) {
      iters->push_back(table_cache->NewIterator(options, f.number, f.file_size));
    }
  }
}

// --- VersionSet --------------------------------------------------------------

VersionSet::VersionSet(std::string dbname, const Options& options,
                       const InternalKeyComparator* icmp, TableCache* table_cache)
    : dbname_(std::move(dbname)),
      options_(options),
      icmp_(icmp),
      table_cache_(table_cache),
      current_(std::make_shared<Version>(icmp)) {}

VersionSet::~VersionSet() = default;

vfs::Vfs& VersionSet::fs() const {
  return options_.vfs != nullptr ? *options_.vfs : vfs::PosixVfs();
}

std::string VersionSet::EncodeSnapshot() const {
  std::string out;
  PutLengthPrefixedSlice(&out, icmp_->user_comparator()->Name());
  PutVarint64(&out, log_number_);
  PutVarint64(&out, next_file_number_);
  PutVarint64(&out, last_sequence_);
  PutVarint32(&out, kNumLevels);
  for (int level = 0; level < kNumLevels; ++level) {
    const auto& files = current_->files[level];
    PutVarint32(&out, static_cast<uint32_t>(files.size()));
    for (const auto& f : files) {
      PutVarint64(&out, f.number);
      PutVarint64(&out, f.file_size);
      PutLengthPrefixedSlice(&out, Slice(f.smallest));
      PutLengthPrefixedSlice(&out, Slice(f.largest));
    }
  }

  // Value-log extension section. Appended only when the store actually has
  // blob segments (or tables referencing them), so stores that never used
  // the value log keep a byte-for-byte identical manifest; decoders treat a
  // record that ends here as having an empty extension.
  std::vector<BlobSegmentMeta> segments;
  if (blob_segment_provider_) segments = blob_segment_provider_();
  bool any_refs = false;
  for (int level = 0; level < kNumLevels && !any_refs; ++level) {
    for (const auto& f : current_->files[level]) {
      if (!f.blob_refs.empty()) {
        any_refs = true;
        break;
      }
    }
  }
  if (!segments.empty() || any_refs) {
    PutVarint32(&out, static_cast<uint32_t>(segments.size()));
    for (const auto& seg : segments) {
      PutVarint64(&out, seg.number);
      PutVarint64(&out, seg.total_bytes);
      PutVarint64(&out, seg.live_bytes);
    }
    uint32_t files_with_refs = 0;
    for (int level = 0; level < kNumLevels; ++level) {
      for (const auto& f : current_->files[level]) {
        if (!f.blob_refs.empty()) ++files_with_refs;
      }
    }
    PutVarint32(&out, files_with_refs);
    for (int level = 0; level < kNumLevels; ++level) {
      for (const auto& f : current_->files[level]) {
        if (f.blob_refs.empty()) continue;
        PutVarint64(&out, f.number);
        PutVarint32(&out, static_cast<uint32_t>(f.blob_refs.size()));
        for (const uint64_t seg : f.blob_refs) PutVarint64(&out, seg);
      }
    }
  }
  return out;
}

Status VersionSet::DecodeSnapshot(const Slice& record) {
  Slice input = record;
  Slice comparator_name;
  if (!GetLengthPrefixedSlice(&input, &comparator_name)) {
    return Status::Corruption("manifest: bad comparator name");
  }
  if (comparator_name != Slice(icmp_->user_comparator()->Name())) {
    return Status::InvalidArgument(
        "comparator mismatch: db uses " + comparator_name.ToString() +
        ", options supply " + icmp_->user_comparator()->Name());
  }
  uint64_t log_number, next_file, last_seq;
  uint32_t num_levels;
  if (!GetVarint64(&input, &log_number) || !GetVarint64(&input, &next_file) ||
      !GetVarint64(&input, &last_seq) || !GetVarint32(&input, &num_levels)) {
    return Status::Corruption("manifest: bad header fields");
  }
  if (num_levels > kNumLevels) {
    return Status::Corruption("manifest: too many levels");
  }

  auto v = std::make_shared<Version>(icmp_);
  for (uint32_t level = 0; level < num_levels; ++level) {
    uint32_t count;
    if (!GetVarint32(&input, &count)) return Status::Corruption("manifest: bad count");
    for (uint32_t i = 0; i < count; ++i) {
      FileMetaData f;
      Slice smallest, largest;
      if (!GetVarint64(&input, &f.number) || !GetVarint64(&input, &f.file_size) ||
          !GetLengthPrefixedSlice(&input, &smallest) ||
          !GetLengthPrefixedSlice(&input, &largest)) {
        return Status::Corruption("manifest: bad file record");
      }
      f.smallest = smallest.ToString();
      f.largest = largest.ToString();
      v->files[level].push_back(std::move(f));
    }
  }

  // Optional value-log extension (see EncodeSnapshot). Records from stores
  // that never used the value log end exactly at the levels section.
  std::vector<BlobSegmentMeta> segments;
  if (!input.empty()) {
    uint32_t segment_count = 0;
    // Every entry takes at least one byte, so a count above the bytes left
    // is corrupt; checked before the count sizes any allocation.
    if (!GetVarint32(&input, &segment_count) || segment_count > input.size()) {
      return Status::Corruption("manifest: bad blob segment count");
    }
    segments.reserve(segment_count);
    for (uint32_t i = 0; i < segment_count; ++i) {
      BlobSegmentMeta meta;
      if (!GetVarint64(&input, &meta.number) ||
          !GetVarint64(&input, &meta.total_bytes) ||
          !GetVarint64(&input, &meta.live_bytes)) {
        return Status::Corruption("manifest: bad blob segment record");
      }
      segments.push_back(meta);
    }
    uint32_t files_with_refs = 0;
    if (!GetVarint32(&input, &files_with_refs)) {
      return Status::Corruption("manifest: bad blob ref count");
    }
    for (uint32_t i = 0; i < files_with_refs; ++i) {
      uint64_t file_number = 0;
      uint32_t ref_count = 0;
      if (!GetVarint64(&input, &file_number) || !GetVarint32(&input, &ref_count) ||
          ref_count > input.size()) {
        return Status::Corruption("manifest: bad blob ref record");
      }
      std::vector<uint64_t> refs(ref_count);
      for (uint32_t r = 0; r < ref_count; ++r) {
        if (!GetVarint64(&input, &refs[r])) {
          return Status::Corruption("manifest: bad blob ref entry");
        }
      }
      for (auto& level_files : v->files) {
        for (auto& f : level_files) {
          if (f.number == file_number) f.blob_refs = refs;
        }
      }
    }
  }
  recovered_blob_segments_ = std::move(segments);

  log_number_ = log_number;
  next_file_number_ = next_file;
  last_sequence_ = last_seq;
  retained_.push_back(current_);
  current_ = std::move(v);
  return Status::OK();
}

Status VersionSet::SetCurrentFile(uint64_t manifest_number) {
  // Write CURRENT via a temp file + rename for atomicity.
  const std::string contents =
      "MANIFEST-" + std::to_string(manifest_number).insert(
          0, 6 - std::min<size_t>(6, std::to_string(manifest_number).size()), '0') +
      "\n";
  const std::string tmp = dbname_ + "/CURRENT.tmp";
  LSMIO_RETURN_IF_ERROR(vfs::WriteStringToFile(fs(), tmp, contents));
  return fs().RenameFile(tmp, CurrentFileName(dbname_));
}

Status VersionSet::WriteSnapshot() {
  AssertOwnerHeld();
  // Start a fresh manifest file.
  manifest_file_number_ = NewFileNumber();
  const std::string fname = ManifestFileName(dbname_, manifest_file_number_);
  std::unique_ptr<vfs::WritableFile> file;
  LSMIO_RETURN_IF_ERROR(fs().NewWritableFile(fname, {}, &file));
  auto writer = std::make_unique<log::Writer>(file.get());
  const std::string record = EncodeSnapshot();
  Status s = writer->AddRecord(record);
  if (s.ok()) s = file->Sync();
  if (!s.ok()) {
    // Failure path: the half-written manifest is being discarded (CURRENT
    // still points at the old one); `s` carries the root cause.
    file->Close().IgnoreError();
    fs().RemoveFile(fname).IgnoreError();
    return s;
  }
  manifest_file_ = std::move(file);
  manifest_log_ = std::move(writer);
  return SetCurrentFile(manifest_file_number_);
}

Status VersionSet::Recover(bool* save_manifest) {
  AssertOwnerHeld();
  *save_manifest = false;
  std::string current;
  Status s = vfs::ReadFileToString(fs(), CurrentFileName(dbname_), &current);
  if (!s.ok()) return s;
  if (current.empty() || current.back() != '\n') {
    return Status::Corruption("CURRENT file is malformed");
  }
  current.pop_back();

  const std::string manifest_path = dbname_ + "/" + current;
  std::unique_ptr<vfs::SequentialFile> file;
  LSMIO_RETURN_IF_ERROR(fs().NewSequentialFile(manifest_path, {}, &file));

  struct Reporter final : log::Reader::Reporter {
    Status status;
    void Corruption(size_t, const Status& reason) override {
      if (status.ok()) status = reason;
    }
  } reporter;

  log::Reader reader(file.get(), &reporter, /*checksum=*/true);
  Slice record;
  std::string scratch;
  bool found = false;
  // Apply every snapshot record; the last one wins.
  while (reader.ReadRecord(&record, &scratch)) {
    LSMIO_RETURN_IF_ERROR(DecodeSnapshot(record));
    found = true;
  }
  if (!reporter.status.ok()) return reporter.status;
  if (!found) return Status::Corruption("manifest has no snapshot record");

  uint64_t manifest_number = 0;
  FileType type;
  if (ParseFileName(current, &manifest_number, &type) &&
      type == FileType::kManifestFile && manifest_number >= next_file_number_) {
    next_file_number_ = manifest_number + 1;
  }

  // Append future records to a fresh manifest (simpler than re-opening the
  // old one for append).
  *save_manifest = true;
  return Status::OK();
}

Status VersionSet::LogAndApply(std::shared_ptr<Version> v) {
  AssertOwnerHeld();
  retained_.push_back(current_);
  current_ = std::move(v);
  if (manifest_log_ == nullptr) {
    return WriteSnapshot();
  }
  const std::string record = EncodeSnapshot();
  Status s = manifest_log_->AddRecord(record);
  // Always fsync: callers delete obsolete files (compaction inputs, old
  // WALs) right after LogAndApply returns, so an unsynced manifest record
  // could leave the durable snapshot pointing at files that no longer
  // exist after a power failure.
  if (s.ok()) s = manifest_file_->Sync();
  return s;
}

std::shared_ptr<Version> VersionSet::MakeVersion(
    const std::vector<std::pair<int, FileMetaData>>& additions,
    const std::vector<std::pair<int, uint64_t>>& deletions) const {
  AssertOwnerHeld();
  auto v = std::make_shared<Version>(icmp_);
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : current_->files[level]) {
      const bool deleted = std::any_of(
          deletions.begin(), deletions.end(), [&](const auto& d) {
            return d.first == level && d.second == f.number;
          });
      if (!deleted) v->files[level].push_back(f);
    }
  }
  for (const auto& [level, f] : additions) {
    assert(level >= 0 && level < kNumLevels);
    v->files[level].push_back(f);
  }
  // Keep L0 newest-first, L1+ sorted by smallest key.
  std::sort(v->files[0].begin(), v->files[0].end(),
            [](const FileMetaData& a, const FileMetaData& b) {
              return a.number > b.number;
            });
  for (int level = 1; level < kNumLevels; ++level) {
    std::sort(v->files[level].begin(), v->files[level].end(),
              [this](const FileMetaData& a, const FileMetaData& b) {
                return icmp_->Compare(Slice(a.smallest), Slice(b.smallest)) < 0;
              });
  }
#if LSMIO_STATUS_DEBUG || !defined(NDEBUG)
  // Every L1+ level must stay one sorted run: a table sharing a user key
  // with a neighbour lets a later one-file compaction move the newer
  // version of that key below the older one. Checked wherever
  // unchecked-Status tracking is, so the test builds check it too.
  const Comparator* ucmp = icmp_->user_comparator();
  for (const auto& [level, added] : additions) {
    if (level == 0) continue;
    const auto& run = v->files[level];
    for (size_t i = 1; i < run.size(); ++i) {
      if ((run[i - 1].number == added.number || run[i].number == added.number) &&
          ucmp->Compare(ExtractUserKey(Slice(run[i - 1].largest)),
                        ExtractUserKey(Slice(run[i].smallest))) >= 0) {
        std::fprintf(stderr, "lsmio: L%d tables %llu and %llu share a user key\n",
                     level, static_cast<unsigned long long>(run[i - 1].number),
                     static_cast<unsigned long long>(run[i].number));
        std::abort();
      }
    }
  }
#endif
  return v;
}

void VersionSet::AddLiveFiles(std::vector<uint64_t>* live) const {
  AssertOwnerHeld();
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : current_->files[level]) live->push_back(f.number);
  }
  // Old versions still pinned by readers keep their files live; prune the
  // rest. Called with the DB mutex held, so no one else mutates retained_.
  auto it = retained_.begin();
  while (it != retained_.end()) {
    if (const auto v = it->lock()) {
      for (int level = 0; level < kNumLevels; ++level) {
        for (const auto& f : v->files[level]) live->push_back(f.number);
      }
      ++it;
    } else {
      it = retained_.erase(it);
    }
  }
}

void VersionSet::CollectVersionGuards(
    std::vector<std::weak_ptr<const void>>* guards) const {
  AssertOwnerHeld();
  auto it = retained_.begin();
  while (it != retained_.end()) {
    if (it->expired()) {
      it = retained_.erase(it);
    } else {
      guards->push_back(*it);
      ++it;
    }
  }
}

}  // namespace lsmio::lsm
