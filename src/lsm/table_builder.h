// Builds an immutable SSTable (the C1..Ck on-disk tree nodes, paper §2.2):
// sorted keys arrive once, data blocks stream out as large sequential
// appends — the access pattern the whole paper is built on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "lsm/options.h"
#include "vfs/vfs.h"

namespace lsmio::lsm {

class BlockBuilder;
class FilterBlockBuilder;
class Comparator;
class FilterPolicy;

class TableBuilder {
 public:
  /// Writes a table to `file` (caller keeps ownership of the file and must
  /// Close() it after Finish()). `filter_policy` may be null.
  TableBuilder(const Options& options, const Comparator* comparator,
               const FilterPolicy* filter_policy, vfs::WritableFile* file);
  ~TableBuilder();

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  /// Adds key/value. Keys must be added in strictly increasing order.
  void Add(const Slice& key, const Slice& value);

  /// Writes the current data block if it reached block_size.
  void Flush();

  /// Finishes the table: filter, metaindex, index blocks and footer.
  Status Finish();

  /// Abandons the table (no further methods except destructor).
  void Abandon();

  [[nodiscard]] Status status() const;
  /// File bytes written so far.
  [[nodiscard]] uint64_t FileSize() const;

 private:
  struct Rep;

  void WriteBlock(BlockBuilder* block, class BlockHandle* handle);
  /// Appends `*contents` and its trailer in one write: the trailer goes at
  /// the end of the block's own buffer, which the caller resets or drops.
  void WriteRawBlock(std::string* contents, CompressionType type,
                     class BlockHandle* handle);

  std::unique_ptr<Rep> rep_;
};

}  // namespace lsmio::lsm
