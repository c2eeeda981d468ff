// Filter block: one bloom filter per 2 KiB of table data offset range,
// stored after the data blocks and located through the metaindex.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "lsm/filter_policy.h"

namespace lsmio::lsm {

class FilterBlockBuilder {
 public:
  explicit FilterBlockBuilder(const FilterPolicy* policy);

  FilterBlockBuilder(const FilterBlockBuilder&) = delete;
  FilterBlockBuilder& operator=(const FilterBlockBuilder&) = delete;

  /// Called when a data block starts at `block_offset`.
  void StartBlock(uint64_t block_offset);
  void AddKey(const Slice& key);
  /// Returns the buffer holding the finished filter block. The caller may
  /// append to it: TableBuilder writes the block trailer there.
  std::string& Finish();

 private:
  void GenerateFilter();

  const FilterPolicy* policy_;
  std::string keys_;               // flattened key bytes
  std::vector<size_t> key_starts_; // start offset of each key in keys_
  std::string result_;             // filter data so far
  std::vector<uint32_t> filter_offsets_;
};

class FilterBlockReader {
 public:
  /// `contents` must outlive the reader (it points into the pinned block).
  FilterBlockReader(const FilterPolicy* policy, const Slice& contents);

  [[nodiscard]] bool KeyMayMatch(uint64_t block_offset, const Slice& key) const;

 private:
  const FilterPolicy* policy_;
  const char* data_ = nullptr;    // filter data start
  const char* offset_ = nullptr;  // offset array start
  size_t num_ = 0;
  size_t base_lg_ = 0;
};

}  // namespace lsmio::lsm
