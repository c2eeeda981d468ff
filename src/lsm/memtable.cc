#include "lsm/memtable.h"

#include <cstring>

#include "common/coding.h"

namespace lsmio::lsm {

namespace {

// Memtable record layout (all in one arena allocation):
//   varint32(internal_key_len) | internal_key | varint32(value_len) | value
Slice GetLengthPrefixed(const char* data) {
  uint32_t len = 0;
  const char* p = GetVarint32Ptr(data, data + kMaxVarint32Bytes, &len);
  return Slice(p, len);
}

}  // namespace

MemTable::MemTable(const InternalKeyComparator& cmp)
    : comparator_(cmp), table_(comparator_, &arena_) {}

int MemTable::KeyComparator::operator()(const char* a, const char* b) const {
  const Slice ak = GetLengthPrefixed(a);
  const Slice bk = GetLengthPrefixed(b);
  return comparator.Compare(ak, bk);
}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& user_key,
                   const Slice& value) {
  const size_t user_key_size = user_key.size();
  const size_t internal_key_size = user_key_size + 8;
  const size_t value_size = value.size();
  const size_t encoded_len = static_cast<size_t>(VarintLength(internal_key_size)) +
                             internal_key_size +
                             static_cast<size_t>(VarintLength(value_size)) +
                             value_size;
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(internal_key_size));
  std::memcpy(p, user_key.data(), user_key_size);
  p += user_key_size;
  EncodeFixed64(p, PackSequenceAndType(seq, type));
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(value_size));
  std::memcpy(p, value.data(), value_size);
  table_.Insert(buf);
  entries_.fetch_add(1, std::memory_order_relaxed);
}

bool MemTable::Get(const LookupKey& key, std::string* value, Status* s,
                   bool* is_pointer) {
  const Slice memkey = key.memtable_key();
  Table::Iterator iter(&table_);
  iter.Seek(memkey.data());
  if (!iter.Valid()) return false;

  // Seek landed on the first entry >= (user_key, seq): check user key match.
  const char* entry = iter.key();
  uint32_t key_length = 0;
  const char* key_ptr = GetVarint32Ptr(entry, entry + kMaxVarint32Bytes, &key_length);
  const Slice entry_user_key(key_ptr, key_length - 8);
  if (comparator_.comparator.user_comparator()->Compare(entry_user_key,
                                                        key.user_key()) != 0) {
    return false;
  }
  const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
  switch (static_cast<ValueType>(tag & 0xff)) {
    case ValueType::kValuePointer:
      if (is_pointer != nullptr) *is_pointer = true;
      [[fallthrough]];
    case ValueType::kValue: {
      const Slice v = GetLengthPrefixed(key_ptr + key_length);
      value->assign(v.data(), v.size());
      *s = Status::OK();
      return true;
    }
    case ValueType::kDeletion:
      *s = Status::NotFound("deleted");
      return true;
  }
  return false;
}

class MemTableIterator final : public Iterator {
 public:
  explicit MemTableIterator(MemTable::Table* table) : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }
  void Seek(const Slice& internal_key) override {
    // Build a length-prefixed seek key.
    scratch_.clear();
    PutVarint32(&scratch_, static_cast<uint32_t>(internal_key.size()));
    scratch_.append(internal_key.data(), internal_key.size());
    iter_.Seek(scratch_.data());
  }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void SeekToLast() override { iter_.SeekToLast(); }
  void Next() override { iter_.Next(); }
  void Prev() override { iter_.Prev(); }
  Slice key() const override { return GetLengthPrefixed(iter_.key()); }
  Slice value() const override {
    const Slice k = GetLengthPrefixed(iter_.key());
    return GetLengthPrefixed(k.data() + k.size());
  }
  Status status() const override { return Status::OK(); }

 private:
  MemTable::Table::Iterator iter_;
  std::string scratch_;
};

Iterator* MemTable::NewIterator() { return new MemTableIterator(&table_); }

}  // namespace lsmio::lsm
