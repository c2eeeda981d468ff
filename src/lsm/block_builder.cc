#include "lsm/block_builder.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"

namespace lsmio::lsm {

BlockBuilder::BlockBuilder(const Options* options) : options_(options) {
  assert(options->block_restart_interval >= 1);
  restarts_.push_back(0);
}

void BlockBuilder::Reset() {
  buffer_.clear();
  restarts_.clear();
  restarts_.push_back(0);
  counter_ = 0;
  finished_ = false;
  last_key_.clear();
}

size_t BlockBuilder::CurrentSizeEstimate() const {
  if (finished_) return buffer_.size();  // restart array already appended
  return buffer_.size() + restarts_.size() * sizeof(uint32_t) + sizeof(uint32_t);
}

void BlockBuilder::Add(const Slice& key, const Slice& value) {
  assert(!finished_);
  assert(counter_ <= options_->block_restart_interval);

  size_t shared = 0;
  if (counter_ < options_->block_restart_interval) {
    // Shared prefix with the previous key.
    const Slice last(last_key_);
    const size_t min_len = std::min(last.size(), key.size());
    while (shared < min_len && last[shared] == key[shared]) ++shared;
  } else {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    counter_ = 0;
  }
  const size_t non_shared = key.size() - shared;

  PutVarint32(&buffer_, static_cast<uint32_t>(shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(non_shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(value.size()));
  buffer_.append(key.data() + shared, non_shared);
  buffer_.append(value.data(), value.size());

  last_key_.resize(shared);
  last_key_.append(key.data() + shared, non_shared);
  ++counter_;
}

std::string& BlockBuilder::Finish() {
  for (const uint32_t restart : restarts_) PutFixed32(&buffer_, restart);
  PutFixed32(&buffer_, static_cast<uint32_t>(restarts_.size()));
  finished_ = true;
  return buffer_;
}

}  // namespace lsmio::lsm
