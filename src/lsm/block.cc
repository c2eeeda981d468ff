#include "lsm/block.h"

#include <cassert>

#include "common/coding.h"

namespace lsmio::lsm {

uint32_t Block::NumRestarts() const noexcept {
  assert(data_.size() >= sizeof(uint32_t));
  return DecodeFixed32(data_.data() + data_.size() - sizeof(uint32_t));
}

Block::Block(std::string contents) : contents_(std::move(contents)) {
  data_ = Slice(contents_);
  Init();
}

Block::Block(const Slice& contents) : data_(contents) { Init(); }

void Block::Init() {
  if (data_.size() < sizeof(uint32_t)) {
    malformed_ = true;
    return;
  }
  const uint32_t num_restarts = NumRestarts();
  const size_t max_restarts = (data_.size() - sizeof(uint32_t)) / sizeof(uint32_t);
  if (num_restarts > max_restarts) {
    malformed_ = true;
    return;
  }
  restart_offset_ = static_cast<uint32_t>(data_.size()) -
                    (1 + num_restarts) * sizeof(uint32_t);
}

namespace {

// Decodes the entry header at p: shared, non_shared, value_length.
// Returns pointer to the non-shared key bytes, or nullptr on corruption.
const char* DecodeEntry(const char* p, const char* limit, uint32_t* shared,
                        uint32_t* non_shared, uint32_t* value_length) {
  if (limit - p < 3) return nullptr;
  // Fast path: all three lengths in one byte each.
  *shared = static_cast<unsigned char>(p[0]);
  *non_shared = static_cast<unsigned char>(p[1]);
  *value_length = static_cast<unsigned char>(p[2]);
  if ((*shared | *non_shared | *value_length) < 128) {
    p += 3;
  } else {
    if ((p = GetVarint32Ptr(p, limit, shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, non_shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, value_length)) == nullptr) return nullptr;
  }
  // 64-bit sum: the two 32-bit lengths must not wrap past the bound.
  if (static_cast<uint64_t>(limit - p) <
      static_cast<uint64_t>(*non_shared) + *value_length) {
    return nullptr;
  }
  return p;
}

}  // namespace

class Block::Iter final : public Iterator {
 public:
  Iter(const Comparator* comparator, const char* data, uint32_t restarts,
       uint32_t num_restarts)
      : comparator_(comparator),
        data_(data),
        restarts_(restarts),
        num_restarts_(num_restarts),
        current_(restarts),
        restart_index_(num_restarts) {
    assert(num_restarts_ > 0);
  }

  bool Valid() const override { return current_ < restarts_; }
  Status status() const override { return status_; }
  Slice key() const override {
    assert(Valid());
    return Slice(key_);
  }
  Slice value() const override {
    assert(Valid());
    return value_;
  }

  void Next() override {
    assert(Valid());
    ParseNextKey();
  }

  void Prev() override {
    assert(Valid());
    // Find the restart point strictly before current_, then scan forward.
    const uint32_t original = current_;
    while (GetRestartPoint(restart_index_) >= original) {
      if (restart_index_ == 0) {
        current_ = restarts_;
        restart_index_ = num_restarts_;
        return;  // before first entry
      }
      --restart_index_;
    }
    SeekToRestartPoint(restart_index_);
    do {
    } while (ParseNextKey() && NextEntryOffset() < original);
  }

  void Seek(const Slice& target) override {
    // Binary search over restart points for the last one with key < target.
    uint32_t left = 0;
    uint32_t right = num_restarts_ - 1;
    while (left < right) {
      const uint32_t mid = (left + right + 1) / 2;
      const uint32_t region_offset = GetRestartPoint(mid);
      uint32_t shared, non_shared, value_length;
      const char* key_ptr =
          DecodeEntry(data_ + region_offset, data_ + restarts_, &shared,
                      &non_shared, &value_length);
      if (key_ptr == nullptr || shared != 0) {
        CorruptionError();
        return;
      }
      const Slice mid_key(key_ptr, non_shared);
      if (comparator_->Compare(mid_key, target) < 0) {
        left = mid;
      } else {
        right = mid - 1;
      }
    }
    SeekToRestartPoint(left);
    // Linear scan to the first key >= target.
    for (;;) {
      if (!ParseNextKey()) return;
      if (comparator_->Compare(Slice(key_), target) >= 0) return;
    }
  }

  void SeekToFirst() override {
    SeekToRestartPoint(0);
    ParseNextKey();
  }

  void SeekToLast() override {
    SeekToRestartPoint(num_restarts_ - 1);
    while (ParseNextKey() && NextEntryOffset() < restarts_) {
    }
  }

 private:
  [[nodiscard]] uint32_t NextEntryOffset() const {
    return static_cast<uint32_t>((value_.data() + value_.size()) - data_);
  }

  [[nodiscard]] uint32_t GetRestartPoint(uint32_t index) const {
    assert(index < num_restarts_);
    return DecodeFixed32(data_ + restarts_ + index * sizeof(uint32_t));
  }

  void SeekToRestartPoint(uint32_t index) {
    key_.clear();
    restart_index_ = index;
    // value_ is positioned so NextEntryOffset() lands on the restart point.
    const uint32_t offset = GetRestartPoint(index);
    value_ = Slice(data_ + offset, 0);
  }

  void CorruptionError() {
    current_ = restarts_;
    restart_index_ = num_restarts_;
    status_ = Status::Corruption("bad entry in block");
    key_.clear();
    value_.clear();
  }

  bool ParseNextKey() {
    current_ = NextEntryOffset();
    const char* p = data_ + current_;
    const char* limit = data_ + restarts_;
    if (p >= limit) {
      // No more entries.
      current_ = restarts_;
      restart_index_ = num_restarts_;
      return false;
    }
    uint32_t shared, non_shared, value_length;
    p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
    if (p == nullptr || key_.size() < shared) {
      CorruptionError();
      return false;
    }
    key_.resize(shared);
    key_.append(p, non_shared);
    value_ = Slice(p + non_shared, value_length);
    while (restart_index_ + 1 < num_restarts_ &&
           GetRestartPoint(restart_index_ + 1) < current_) {
      ++restart_index_;
    }
    return true;
  }

  const Comparator* const comparator_;
  const char* const data_;
  const uint32_t restarts_;
  const uint32_t num_restarts_;

  uint32_t current_;
  uint32_t restart_index_;
  std::string key_;
  Slice value_;
  Status status_;
};

Iterator* Block::NewIterator(const Comparator* cmp) {
  if (malformed_) {
    return NewErrorIterator(Status::Corruption("bad block contents"));
  }
  const uint32_t num_restarts = NumRestarts();
  if (num_restarts == 0) return NewEmptyIterator();
  return new Iter(cmp, data_.data(), restart_offset_, num_restarts);
}

}  // namespace lsmio::lsm
