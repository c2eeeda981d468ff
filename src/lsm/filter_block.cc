#include "lsm/filter_block.h"

#include "common/coding.h"

namespace lsmio::lsm {

// Generate a new filter every 2 KiB of table offset space.
static constexpr size_t kFilterBaseLg = 11;
static constexpr size_t kFilterBase = 1 << kFilterBaseLg;

FilterBlockBuilder::FilterBlockBuilder(const FilterPolicy* policy)
    : policy_(policy) {}

void FilterBlockBuilder::StartBlock(uint64_t block_offset) {
  const uint64_t filter_index = block_offset / kFilterBase;
  while (filter_index > filter_offsets_.size()) GenerateFilter();
}

void FilterBlockBuilder::AddKey(const Slice& key) {
  key_starts_.push_back(keys_.size());
  keys_.append(key.data(), key.size());
}

std::string& FilterBlockBuilder::Finish() {
  if (!key_starts_.empty()) GenerateFilter();

  const uint32_t array_offset = static_cast<uint32_t>(result_.size());
  for (const uint32_t off : filter_offsets_) PutFixed32(&result_, off);
  PutFixed32(&result_, array_offset);
  result_.push_back(static_cast<char>(kFilterBaseLg));
  return result_;
}

void FilterBlockBuilder::GenerateFilter() {
  const size_t num_keys = key_starts_.size();
  if (num_keys == 0) {
    // No keys for this filter range: record an empty filter.
    filter_offsets_.push_back(static_cast<uint32_t>(result_.size()));
    return;
  }
  key_starts_.push_back(keys_.size());  // sentinel

  std::vector<Slice> tmp_keys(num_keys);
  for (size_t i = 0; i < num_keys; ++i) {
    tmp_keys[i] = Slice(keys_.data() + key_starts_[i],
                        key_starts_[i + 1] - key_starts_[i]);
  }

  filter_offsets_.push_back(static_cast<uint32_t>(result_.size()));
  policy_->CreateFilter(tmp_keys.data(), static_cast<int>(num_keys), &result_);

  keys_.clear();
  key_starts_.clear();
}

FilterBlockReader::FilterBlockReader(const FilterPolicy* policy,
                                     const Slice& contents)
    : policy_(policy) {
  const size_t n = contents.size();
  if (n < 5) return;  // 4-byte array offset + 1-byte base_lg at minimum
  const size_t base_lg = static_cast<unsigned char>(contents[n - 1]);
  const uint32_t array_offset = DecodeFixed32(contents.data() + n - 5);
  // A shift of 64 or more is undefined: treat it as malformed, like a bad
  // array offset.
  if (base_lg >= 64 || array_offset > n - 5) return;
  base_lg_ = base_lg;
  data_ = contents.data();
  offset_ = data_ + array_offset;
  num_ = (n - 5 - array_offset) / 4;
}

bool FilterBlockReader::KeyMayMatch(uint64_t block_offset, const Slice& key) const {
  const uint64_t index = block_offset >> base_lg_;
  if (index < num_) {
    const uint32_t start = DecodeFixed32(offset_ + index * 4);
    const uint32_t limit = DecodeFixed32(offset_ + index * 4 + 4);
    if (start <= limit &&
        limit <= static_cast<uint32_t>(offset_ - data_)) {
      const Slice filter(data_ + start, limit - start);
      return policy_->KeyMayMatch(key, filter);
    }
    if (start == limit) return false;  // empty filter: no keys in range
  }
  return true;  // errors are treated as potential matches
}

}  // namespace lsmio::lsm
