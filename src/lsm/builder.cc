#include "lsm/builder.h"

#include <utility>

#include "lsm/dbformat.h"
#include "lsm/iterator.h"
#include "lsm/table_builder.h"
#include "lsm/value_log.h"

namespace lsmio::lsm {

TableOutputWriter::TableOutputWriter(
    const std::string& dbname, vfs::Vfs& fs, const Options& options,
    const InternalKeyComparator* icmp, const FilterPolicy* filter_policy,
    std::function<uint64_t()> new_file_number, RateLimiter* rate_limiter,
    RateLimiter::Priority priority, bool roll)
    : dbname_(dbname),
      fs_(fs),
      options_(options),
      icmp_(icmp),
      filter_policy_(filter_policy),
      new_file_number_(std::move(new_file_number)),
      rate_limiter_(rate_limiter),
      priority_(priority),
      roll_(roll) {}

TableOutputWriter::~TableOutputWriter() {
  if (current_.builder != nullptr) {
    current_.builder->Abandon();
    current_.file->Close().IgnoreError();
  }
  if (keep_) return;
  for (const uint64_t number : file_numbers_) {
    fs_.RemoveFile(TableFileName(dbname_, number)).IgnoreError();
  }
}

Status TableOutputWriter::OpenOutput() {
  current_.meta.number = new_file_number_();
  file_numbers_.push_back(current_.meta.number);
  vfs::OpenOptions opts;
  opts.write_behind = priority_ == RateLimiter::Priority::kHigh;
  LSMIO_RETURN_IF_ERROR(fs_.NewWritableFile(
      TableFileName(dbname_, current_.meta.number), opts, &current_.file));
  current_.file =
      MaybeRateLimit(std::move(current_.file), rate_limiter_, priority_);
  current_.builder = std::make_unique<TableBuilder>(
      options_, icmp_, filter_policy_, current_.file.get());
  return Status::OK();
}

Status TableOutputWriter::Add(const Slice& key, const Slice& value) {
  if (!status_.ok()) return status_;
  ParsedInternalKey parsed;
  const bool parsed_ok = ParseInternalKey(key, &parsed);
  if (roll_ && current_.builder != nullptr &&
      current_.builder->FileSize() >= options_.target_file_size) {
    // Roll only between user keys: a key's versions split across two
    // tables of one level would let a one-file compaction move the newer
    // version below the older one. An unparsable key counts as a boundary.
    ParsedInternalKey last;
    if (!parsed_ok || !ParseInternalKey(Slice(current_.meta.largest), &last) ||
        icmp_->user_comparator()->Compare(parsed.user_key, last.user_key) != 0) {
      LSMIO_RETURN_IF_ERROR(FinishOutput());
    }
  }
  if (current_.builder == nullptr) {
    status_ = OpenOutput();
    if (!status_.ok()) return status_;
    current_.meta.smallest = key.ToString();
  }
  current_.meta.largest.assign(key.data(), key.size());
  current_.builder->Add(key, value);
  // Track the blob segments this table's pointer entries reference, so
  // value-log GC can find the tables that pin a mostly-garbage segment.
  uint64_t segment = 0;
  if (parsed_ok && parsed.type == ValueType::kValuePointer &&
      ValueLog::PointerSegment(value, &segment)) {
    current_.blob_refs.insert(segment);
  }
  return Status::OK();
}

Status TableOutputWriter::AddAll(Iterator* iter) {
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    LSMIO_RETURN_IF_ERROR(Add(iter->key(), iter->value()));
  }
  LSMIO_RETURN_IF_ERROR(iter->status());
  return Finish();
}

Status TableOutputWriter::Finish() {
  if (!status_.ok() || current_.builder == nullptr) return status_;
  return FinishOutput();
}

Status TableOutputWriter::FinishOutput() {
  Output out = std::exchange(current_, Output{});
  status_ = out.builder->Finish();
  if (status_.ok()) {
    out.meta.file_size = out.builder->FileSize();
    out.meta.blob_refs.assign(out.blob_refs.begin(), out.blob_refs.end());
    status_ = out.file->Sync();
  }
  if (status_.ok()) {
    status_ = out.file->Close();
    if (status_.ok()) outputs_.push_back(std::move(out.meta));
    return status_;
  }
  // status_ already carries the root cause; the file is removed with the
  // rest.
  out.file->Close().IgnoreError();
  return status_;
}

}  // namespace lsmio::lsm
