// Internal key format shared by memtable, SSTables and the write path.
//
// An internal key is: user_key | fixed64(sequence << 8 | value_type).
// Ordering: ascending user key, then DESCENDING sequence (newest first),
// then descending type — so a Seek lands on the newest visible version.
#pragma once

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "lsm/comparator.h"

namespace lsmio::lsm {

using SequenceNumber = uint64_t;

/// Max sequence: 56 bits (8 reserved for the type tag).
inline constexpr SequenceNumber kMaxSequenceNumber = ((1ULL << 56) - 1);

enum class ValueType : uint8_t {
  kDeletion = 0x0,
  kValue = 0x1,
  /// Value is a ValuePointer into a value-log blob segment, not the user
  /// bytes themselves (see value_log.h).
  kValuePointer = 0x2,
};

/// Value type used for transient seek keys (LookupKey, iterator seeks):
/// newest first means highest tag first, so seeks must use the highest
/// type byte or a pointer entry at exactly the seek sequence would sort
/// before the seek key and be skipped. Never persisted.
inline constexpr ValueType kValueTypeForSeek = ValueType::kValuePointer;

/// Value type used for index-block separator keys. These ARE persisted
/// (SST index blocks) but always carry kMaxSequenceNumber, which sorts
/// before every real entry regardless of the type byte — so keeping the
/// historical kValue byte preserves byte-for-byte SST output for stores
/// that never use the value log.
inline constexpr ValueType kValueTypeForSeparator = ValueType::kValue;

inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) noexcept {
  return (seq << 8) | static_cast<uint64_t>(t);
}

/// A parsed internal key.
struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence = 0;
  ValueType type = ValueType::kValue;
};

inline void AppendInternalKey(std::string* dst, const Slice& user_key,
                              SequenceNumber seq, ValueType t) {
  dst->append(user_key.data(), user_key.size());
  PutFixed64(dst, PackSequenceAndType(seq, t));
}

/// Parses an internal key; returns false on malformed input.
inline bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* out) noexcept {
  if (internal_key.size() < 8) return false;
  const uint64_t tag = DecodeFixed64(internal_key.data() + internal_key.size() - 8);
  const auto type_byte = static_cast<uint8_t>(tag & 0xff);
  if (type_byte > static_cast<uint8_t>(ValueType::kValuePointer)) return false;
  out->user_key = Slice(internal_key.data(), internal_key.size() - 8);
  out->sequence = tag >> 8;
  out->type = static_cast<ValueType>(type_byte);
  return true;
}

inline Slice ExtractUserKey(const Slice& internal_key) noexcept {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

/// Comparator over internal keys, wrapping the user comparator.
class InternalKeyComparator final : public Comparator {
 public:
  explicit InternalKeyComparator(const Comparator* user) : user_comparator_(user) {}

  int Compare(const Slice& a, const Slice& b) const override {
    int r = user_comparator_->Compare(ExtractUserKey(a), ExtractUserKey(b));
    if (r == 0) {
      const uint64_t atag = DecodeFixed64(a.data() + a.size() - 8);
      const uint64_t btag = DecodeFixed64(b.data() + b.size() - 8);
      if (atag > btag) r = -1;       // larger tag (newer) sorts first
      else if (atag < btag) r = +1;
    }
    return r;
  }

  const char* Name() const override { return "lsmio.InternalKeyComparator"; }

  void FindShortestSeparator(std::string* start, const Slice& limit) const override {
    // Shorten the user-key part; re-attach a max tag so ordering holds.
    Slice user_start = ExtractUserKey(*start);
    Slice user_limit = ExtractUserKey(limit);
    std::string tmp(user_start.data(), user_start.size());
    user_comparator_->FindShortestSeparator(&tmp, user_limit);
    if (tmp.size() < user_start.size() &&
        user_comparator_->Compare(user_start, tmp) < 0) {
      PutFixed64(&tmp, PackSequenceAndType(kMaxSequenceNumber, kValueTypeForSeparator));
      *start = std::move(tmp);
    }
  }

  void FindShortSuccessor(std::string* key) const override {
    Slice user_key = ExtractUserKey(*key);
    std::string tmp(user_key.data(), user_key.size());
    user_comparator_->FindShortSuccessor(&tmp);
    if (tmp.size() < user_key.size() && user_comparator_->Compare(user_key, tmp) < 0) {
      PutFixed64(&tmp, PackSequenceAndType(kMaxSequenceNumber, kValueTypeForSeparator));
      *key = std::move(tmp);
    }
  }

  [[nodiscard]] const Comparator* user_comparator() const noexcept {
    return user_comparator_;
  }

 private:
  const Comparator* user_comparator_;
};

/// Helper holding the memtable lookup encoding of a user key:
/// varint32(klen+8) | user_key | tag.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber sequence) {
    const size_t usize = user_key.size();
    const size_t needed = usize + 13;  // conservative
    char* dst = needed <= sizeof(space_) ? space_ : new char[needed];
    start_ = dst;
    dst = EncodeVarint32(dst, static_cast<uint32_t>(usize + 8));
    kstart_ = dst;
    std::memcpy(dst, user_key.data(), usize);
    dst += usize;
    EncodeFixed64(dst, PackSequenceAndType(sequence, kValueTypeForSeek));
    dst += 8;
    end_ = dst;
  }

  ~LookupKey() {
    if (start_ != space_) delete[] start_;
  }

  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;

  /// Key for SkipList/MemTable seeks (length-prefixed internal key).
  [[nodiscard]] Slice memtable_key() const { return Slice(start_, static_cast<size_t>(end_ - start_)); }
  /// Internal key (user key + tag).
  [[nodiscard]] Slice internal_key() const { return Slice(kstart_, static_cast<size_t>(end_ - kstart_)); }
  /// Raw user key.
  [[nodiscard]] Slice user_key() const { return Slice(kstart_, static_cast<size_t>(end_ - kstart_ - 8)); }

 private:
  const char* start_;
  const char* kstart_;
  const char* end_;
  char space_[200];
};

// --- file naming ------------------------------------------------------------

std::string TableFileName(const std::string& dbname, uint64_t number);
std::string LogFileName(const std::string& dbname, uint64_t number);
std::string BlobFileName(const std::string& dbname, uint64_t number);
std::string ManifestFileName(const std::string& dbname, uint64_t number);
std::string CurrentFileName(const std::string& dbname);

/// Parses a file name (no directory) into its number and type.
enum class FileType { kTableFile, kLogFile, kBlobFile, kManifestFile, kCurrentFile, kLockFile, kUnknown };
bool ParseFileName(const std::string& name, uint64_t* number, FileType* type);

}  // namespace lsmio::lsm
