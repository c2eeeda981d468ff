// TableOutputWriter: the one table-output path. Memtable flush, WAL-replay
// flush and compaction all write their SSTables through it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rate_limiter.h"
#include "common/status.h"
#include "lsm/options.h"
#include "lsm/version.h"

namespace lsmio::lsm {

class Iterator;
class InternalKeyComparator;
class FilterPolicy;
class TableBuilder;

/// Writes sorted internal-key entries to one or more new table files. For
/// each output it takes a file number, creates the file behind the rate
/// limiter, feeds a TableBuilder, records the key range and the blob
/// segments the entries point into, and ends with Finish, Sync and Close
/// on the caller's thread.
///
/// Cleanup rule, the same for every caller: outputs that will not be
/// installed are removed when the writer is destroyed. A caller hands the
/// outputs to a manifest install by calling Keep() first; from then on
/// they are the manifest's, even if the install fails (a failed manifest
/// write may still have recorded them), and the obsolete-file sweep of a
/// later open decides their fate.
class TableOutputWriter {
 public:
  /// `new_file_number` hands out each output's number and must also shield
  /// it from the obsolete-file sweep; the caller lifts the shield when it
  /// installs the output. Table writes are charged to `rate_limiter` (null
  /// = unlimited) at `priority`. kHigh outputs (the flushes writers wait
  /// for) are opened write-behind, so their install fsync waits only for
  /// the tail; kLow (compaction) outputs are not. With `roll`, an output
  /// that has reached Options::target_file_size is finished before the
  /// next entry of a new user key, which starts the next output: all
  /// versions of one user key stay in one table. Otherwise every entry
  /// goes to one table.
  TableOutputWriter(const std::string& dbname, vfs::Vfs& fs,
                    const Options& options, const InternalKeyComparator* icmp,
                    const FilterPolicy* filter_policy,
                    std::function<uint64_t()> new_file_number,
                    RateLimiter* rate_limiter, RateLimiter::Priority priority,
                    bool roll);
  /// Removes every file this writer created unless Keep() was called.
  ~TableOutputWriter();

  TableOutputWriter(const TableOutputWriter&) = delete;
  TableOutputWriter& operator=(const TableOutputWriter&) = delete;

  /// Adds one entry; keys must arrive in strictly increasing order. Returns
  /// the writer's first error, after which further entries are ignored.
  Status Add(const Slice& key, const Slice& value);
  /// Adds every entry of `iter`, from its first, then calls Finish.
  Status AddAll(Iterator* iter);
  /// Finishes the open output. On success outputs() lists every table, in
  /// key order.
  Status Finish();
  /// The outputs are about to be installed: keep them on destruction.
  void Keep() { keep_ = true; }

  [[nodiscard]] const std::vector<FileMetaData>& outputs() const {
    return outputs_;
  }

 private:
  /// One table being written.
  struct Output {
    std::unique_ptr<vfs::WritableFile> file;
    std::unique_ptr<TableBuilder> builder;
    FileMetaData meta;
    std::set<uint64_t> blob_refs;
  };

  Status OpenOutput();
  /// Finish, Sync and Close of the open output, which on success joins
  /// outputs() with its file size and blob refs. The fsync always runs,
  /// whatever Options::sync_writes says: once the table is installed, the
  /// WAL or the compaction inputs that covered its entries are deleted, so
  /// an unsynced table could lose acked writes on power failure.
  Status FinishOutput();

  const std::string dbname_;
  vfs::Vfs& fs_;
  const Options& options_;
  const InternalKeyComparator* const icmp_;
  const FilterPolicy* const filter_policy_;
  const std::function<uint64_t()> new_file_number_;
  RateLimiter* const rate_limiter_;
  const RateLimiter::Priority priority_;
  const bool roll_;

  Status status_;   // first error; sticky
  Output current_;  // current_.builder == nullptr: no output open
  std::vector<FileMetaData> outputs_;
  std::vector<uint64_t> file_numbers_;  // every number taken
  bool keep_ = false;
};

}  // namespace lsmio::lsm
