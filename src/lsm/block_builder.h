// Builds an SSTable data/index block: prefix-compressed keys with restart
// points every block_restart_interval entries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "lsm/options.h"

namespace lsmio::lsm {

class BlockBuilder {
 public:
  explicit BlockBuilder(const Options* options);

  BlockBuilder(const BlockBuilder&) = delete;
  BlockBuilder& operator=(const BlockBuilder&) = delete;

  /// Adds key/value; keys must arrive in strictly increasing order.
  void Add(const Slice& key, const Slice& value);

  /// Appends the restart array + count and returns the buffer holding the
  /// finished block contents, valid until Reset. The caller may append to
  /// it: TableBuilder writes the block trailer there.
  std::string& Finish();

  void Reset();

  /// Size estimate of the block being built (including restart array).
  [[nodiscard]] size_t CurrentSizeEstimate() const;

  [[nodiscard]] bool empty() const noexcept { return buffer_.empty(); }

 private:
  const Options* options_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  int counter_ = 0;
  bool finished_ = false;
  std::string last_key_;
};

}  // namespace lsmio::lsm
