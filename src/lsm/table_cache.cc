#include "lsm/table_cache.h"

#include "common/coding.h"
#include "lsm/dbformat.h"
#include "lsm/table.h"
#include "vfs/posix_vfs.h"

namespace lsmio::lsm {

namespace {

struct TableAndFile {
  std::unique_ptr<vfs::RandomAccessFile> file;
  std::unique_ptr<Table> table;
};

void DeleteEntry(const Slice&, void* value) {
  delete static_cast<TableAndFile*>(value);
}

}  // namespace

TableCache::TableCache(std::string dbname, const Options& options,
                       const Comparator* icmp, const FilterPolicy* filter_policy,
                       Cache* block_cache, int entries, ReadCounters* counters)
    : dbname_(std::move(dbname)),
      options_(options),
      icmp_(icmp),
      filter_policy_(filter_policy),
      block_cache_(block_cache),
      counters_(counters),
      cache_(NewLRUCache(static_cast<size_t>(entries))) {}

TableCache::~TableCache() = default;

Status TableCache::FindTable(uint64_t file_number, uint64_t file_size,
                             Cache::Handle** handle) {
  char buf[8];
  EncodeFixed64(buf, file_number);
  const Slice key(buf, sizeof buf);
  *handle = cache_->Lookup(key);
  if (*handle != nullptr) return Status::OK();

  vfs::Vfs& fs = options_.vfs != nullptr ? *options_.vfs : vfs::PosixVfs();
  const std::string fname = TableFileName(dbname_, file_number);
  auto tf = std::make_unique<TableAndFile>();
  vfs::OpenOptions open_opts;
  open_opts.use_mmap = options_.use_mmap;
  LSMIO_RETURN_IF_ERROR(fs.NewRandomAccessFile(fname, open_opts, &tf->file));
  LSMIO_RETURN_IF_ERROR(Table::Open(options_, icmp_, filter_policy_,
                                    block_cache_,
                                    block_cache_ ? block_cache_->NewId() : 0,
                                    tf->file.get(), file_size, &tf->table,
                                    counters_));
  // Charge 1 per table: the cache capacity is "number of open tables".
  *handle = cache_->Insert(key, tf.release(), 1, DeleteEntry);
  return Status::OK();
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  uint64_t file_number, uint64_t file_size) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) return NewErrorIterator(s);

  auto* tf = static_cast<TableAndFile*>(cache_->Value(handle));
  Iterator* result = tf->table->NewIterator(options);
  Cache* cache = cache_.get();
  result->RegisterCleanup([cache, handle] { cache->Release(handle); });
  return result;
}

Status TableCache::MultiGet(
    const ReadOptions& options, uint64_t file_number, uint64_t file_size,
    std::span<const Slice> internal_keys,
    const std::function<void(size_t, const Slice&, const Slice&)>& handle_result) {
  Cache::Handle* handle = nullptr;
  LSMIO_RETURN_IF_ERROR(FindTable(file_number, file_size, &handle));
  auto* tf = static_cast<TableAndFile*>(cache_->Value(handle));
  Status s = tf->table->MultiGet(options, internal_keys, handle_result);
  cache_->Release(handle);
  return s;
}

void TableCache::Evict(uint64_t file_number) {
  char buf[8];
  EncodeFixed64(buf, file_number);
  cache_->Erase(Slice(buf, sizeof buf));
}

}  // namespace lsmio::lsm
