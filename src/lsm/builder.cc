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
  // The outputs are being discarded or were kept after a successful
  // Finish, so errors here cannot change the caller's outcome.
  JoinFinisher().IgnoreError();
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
  LSMIO_RETURN_IF_ERROR(fs_.NewWritableFile(
      TableFileName(dbname_, current_.meta.number), {}, &current_.file));
  current_.file =
      MaybeRateLimit(std::move(current_.file), rate_limiter_, priority_);
  current_.builder = std::make_unique<TableBuilder>(
      options_, icmp_, filter_policy_, current_.file.get());
  return Status::OK();
}

Status TableOutputWriter::Add(const Slice& key, const Slice& value) {
  if (!status_.ok()) return status_;
  if (current_.builder == nullptr) {
    status_ = OpenOutput();
    if (!status_.ok()) return status_;
    current_.meta.smallest = key.ToString();
  }
  current_.meta.largest.assign(key.data(), key.size());
  current_.builder->Add(key, value);
  // Track the blob segments this table's pointer entries reference, so
  // value-log GC can find the tables that pin a mostly-garbage segment.
  ParsedInternalKey parsed;
  ValuePointer ptr;
  if (ParseInternalKey(key, &parsed) &&
      parsed.type == ValueType::kValuePointer &&
      DecodeValuePointer(value, &ptr)) {
    current_.blob_refs.insert(ptr.segment);
  }

  if (roll_ && current_.builder->FileSize() >= options_.target_file_size) {
    // Roll: the full output's Finish, Sync and Close overlap the build of
    // the next one (and, in a compaction, the input reads behind it).
    status_ = JoinFinisher();
    if (!status_.ok()) return status_;
    finishing_ = std::move(current_);
    current_ = Output{};
    finisher_ = std::thread([this] { finish_status_ = FinishOutput(&finishing_); });
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
  if (!status_.ok()) return status_;
  // The rolled output first, so outputs_ stays in key order.
  status_ = JoinFinisher();
  if (!status_.ok() || current_.builder == nullptr) return status_;
  status_ = FinishOutput(&current_);
  if (status_.ok()) outputs_.push_back(std::move(current_.meta));
  current_ = Output{};
  return status_;
}

Status TableOutputWriter::FinishOutput(Output* out) {
  Status s = out->builder->Finish();
  if (s.ok()) {
    out->meta.file_size = out->builder->FileSize();
    out->meta.blob_refs.assign(out->blob_refs.begin(), out->blob_refs.end());
    s = out->file->Sync();
  }
  if (s.ok()) return out->file->Close();
  // `s` already carries the root cause; the file is removed with the rest.
  out->file->Close().IgnoreError();
  return s;
}

Status TableOutputWriter::JoinFinisher() {
  if (!finisher_.joinable()) return Status::OK();
  finisher_.join();
  if (finish_status_.ok()) outputs_.push_back(std::move(finishing_.meta));
  finishing_ = Output{};
  return std::move(finish_status_);
}

}  // namespace lsmio::lsm
