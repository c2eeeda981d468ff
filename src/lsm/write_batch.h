// WriteBatch: an ordered group of updates applied atomically. Also the unit
// of WAL logging — the batch's serialized form IS the log record. The paper
// (§3.1.2) uses batching as the buffering/aggregation mechanism for the
// LevelDB-style backend that cannot disable its WAL.
#pragma once

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "lsm/dbformat.h"

namespace lsmio::lsm {

class MemTable;
class ValueLog;

class WriteBatch {
 public:
  WriteBatch();

  /// One update: `value` is empty for kDeletion and an encoded
  /// ValuePointer for kValuePointer.
  struct Op {
    ValueType type = ValueType::kValue;
    Slice key;
    Slice value;
  };

  /// Stores key->value.
  void Put(const Slice& key, const Slice& value);
  /// Stores key->(encoded ValuePointer): the value bytes live in a blob
  /// segment and `pointer` is their location (see value_log.h). Emitted by
  /// the write path after WAL-time separation, never by user code.
  void PutPointer(const Slice& key, const Slice& pointer);
  /// Removes key (writes a tombstone).
  void Delete(const Slice& key);
  /// Appends `op` (any type).
  void Add(const Op& op);
  /// Copies all ops of `source` onto the end of this batch.
  void Append(const WriteBatch& source);
  /// Clears all ops.
  void Clear();

  /// Number of ops.
  [[nodiscard]] int Count() const;
  /// Serialized size in bytes (== WAL record payload size).
  [[nodiscard]] size_t ApproximateSize() const { return rep_.size(); }

  /// Forward reader over a batch's ops; the batch must outlive it. Next
  /// bounds-checks each record; status() turns Corruption on a short
  /// header, a malformed record, an unknown tag, or a record count that
  /// differs from the header's, and Next returns false from then on.
  class Reader {
   public:
    explicit Reader(const WriteBatch& batch);
    bool Next(Op* op);
    [[nodiscard]] Status status() const { return status_; }

   private:
    Slice input_;
    uint32_t remaining_ = 0;
    Status status_;
  };

  /// The ops InsertInto applied.
  struct Applied {
    uint64_t puts = 0;  // kValue and kValuePointer
    uint64_t deletes = 0;
  };

  /// Applies every op to the memtable with sequence numbers starting at the
  /// batch's sequence; the only writer of memtable entries. With
  /// `replay_vlog` set (WAL replay), a pointer op whose record does not
  /// read back for its key is skipped but still consumes its sequence
  /// number, and one warning per batch counts the drops.
  Status InsertInto(MemTable* mem, const ValueLog* replay_vlog = nullptr,
                    Applied* applied = nullptr) const;

  // --- internal plumbing (DB + WAL) ----------------------------------------

  [[nodiscard]] SequenceNumber Sequence() const;
  void SetSequence(SequenceNumber seq);
  [[nodiscard]] Slice Contents() const { return Slice(rep_); }
  static Status SetContents(WriteBatch* batch, const Slice& contents);

 private:
  void SetCount(int n);

  // rep_: fixed64 sequence | fixed32 count | records...
  // record: kValue varstring key varstring value
  //       | kValuePointer varstring key varstring encoded_pointer
  //       | kDeletion varstring key
  std::string rep_;
};

}  // namespace lsmio::lsm
