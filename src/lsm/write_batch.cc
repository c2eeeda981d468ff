#include "lsm/write_batch.h"

#include "common/coding.h"
#include "common/logging.h"
#include "lsm/memtable.h"
#include "lsm/value_log.h"

namespace lsmio::lsm {

namespace {
// Header: 8-byte sequence + 4-byte count.
constexpr size_t kHeader = 12;
}  // namespace

WriteBatch::WriteBatch() { Clear(); }

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeader, '\0');
}

int WriteBatch::Count() const { return static_cast<int>(DecodeFixed32(rep_.data() + 8)); }

void WriteBatch::SetCount(int n) {
  EncodeFixed32(rep_.data() + 8, static_cast<uint32_t>(n));
}

SequenceNumber WriteBatch::Sequence() const { return DecodeFixed64(rep_.data()); }

void WriteBatch::SetSequence(SequenceNumber seq) { EncodeFixed64(rep_.data(), seq); }

void WriteBatch::Put(const Slice& key, const Slice& value) {
  Add({ValueType::kValue, key, value});
}

void WriteBatch::PutPointer(const Slice& key, const Slice& pointer) {
  Add({ValueType::kValuePointer, key, pointer});
}

void WriteBatch::Delete(const Slice& key) { Add({ValueType::kDeletion, key, Slice()}); }

void WriteBatch::Add(const Op& op) {
  SetCount(Count() + 1);
  rep_.push_back(static_cast<char>(op.type));
  PutLengthPrefixedSlice(&rep_, op.key);
  if (op.type != ValueType::kDeletion) PutLengthPrefixedSlice(&rep_, op.value);
}

void WriteBatch::Append(const WriteBatch& source) {
  SetCount(Count() + source.Count());
  rep_.append(source.rep_.data() + kHeader, source.rep_.size() - kHeader);
}

WriteBatch::Reader::Reader(const WriteBatch& batch) : input_(batch.rep_) {
  if (input_.size() < kHeader) {
    status_ = Status::Corruption("malformed WriteBatch (too small)");
    return;
  }
  remaining_ = DecodeFixed32(input_.data() + 8);
  input_.remove_prefix(kHeader);
}

bool WriteBatch::Reader::Next(Op* op) {
  if (!status_.ok()) return false;
  if (input_.empty() || remaining_ == 0) {
    if (!input_.empty() || remaining_ != 0) {
      status_ = Status::Corruption("WriteBatch count mismatch");
    }
    return false;
  }
  op->type = static_cast<ValueType>(input_[0]);
  input_.remove_prefix(1);
  op->value = Slice();
  bool ok = GetLengthPrefixedSlice(&input_, &op->key);
  switch (op->type) {
    case ValueType::kValue:
    case ValueType::kValuePointer:
      ok = ok && GetLengthPrefixedSlice(&input_, &op->value);
      break;
    case ValueType::kDeletion:
      break;
    default:
      status_ = Status::Corruption("unknown WriteBatch record tag");
      return false;
  }
  if (!ok) {
    status_ = Status::Corruption("bad WriteBatch record");
    return false;
  }
  --remaining_;
  return true;
}

Status WriteBatch::InsertInto(MemTable* mem, const ValueLog* replay_vlog,
                              Applied* applied) const {
  Applied counts;
  uint64_t dropped = 0;
  SequenceNumber sequence = Sequence();
  Reader reader(*this);
  Op op;
  for (; reader.Next(&op); ++sequence) {
    if (op.type == ValueType::kValuePointer && replay_vlog != nullptr &&
        !replay_vlog->ReadValue(op.value, op.key, /*value=*/nullptr).ok()) {
      ++dropped;
      continue;
    }
    mem->Add(sequence, op.type, op.key, op.value);
    ++(op.type == ValueType::kDeletion ? counts.deletes : counts.puts);
  }
  if (dropped > 0) {
    LSMIO_WARN << "dropped " << dropped << " dangling value-log pointer(s) during WAL replay";
  }
  if (applied != nullptr) *applied = counts;
  return reader.status();
}

Status WriteBatch::SetContents(WriteBatch* batch, const Slice& contents) {
  if (contents.size() < kHeader) {
    return Status::Corruption("WriteBatch contents too small");
  }
  batch->rep_.assign(contents.data(), contents.size());
  return Status::OK();
}

}  // namespace lsmio::lsm
