#include "lsm/table.h"

#include <algorithm>

#include "common/coding.h"
#include "common/inline_vector.h"
#include "lsm/block.h"
#include "lsm/comparator.h"
#include "lsm/dbformat.h"
#include "lsm/filter_block.h"
#include "lsm/format.h"
#include "lsm/read_stats.h"
#include "lsm/two_level_iterator.h"

namespace lsmio::lsm {

namespace {

/// Upper bound on one run read (several adjacent blocks fetched with a
/// single VFS read), for MultiGet runs and iterator readahead windows alike.
constexpr uint64_t kMaxRunBytes = 1 << 20;

/// File offset just past `handle`'s block and its trailer.
uint64_t BlockEnd(const BlockHandle& handle) {
  return handle.offset() + handle.size() + kBlockTrailerSize;
}

void DeleteCachedBlock(const Slice&, void* value) {
  delete static_cast<Block*>(value);
}

void DeleteCachedFilterData(const Slice&, void* value) {
  delete static_cast<std::string*>(value);
}

/// File bytes [start, end) fetched with one VFS read: by MultiGet for a
/// run of adjacent cache-missing blocks, by an iterator for one readahead
/// window (or one block). Each block inside is decoded from these bytes.
struct Run {
  uint64_t start = 0;
  uint64_t end = 0;
  Slice bytes;         // the run's bytes: into `buffer`, or mmap'd memory
  std::string buffer;

  /// True when the block at `handle` lies wholly inside the run.
  [[nodiscard]] bool Holds(const BlockHandle& handle) const {
    return handle.offset() >= start && BlockEnd(handle) <= end;
  }
};

}  // namespace

struct Table::Rep {
  Options options;
  const Comparator* comparator = nullptr;
  const FilterPolicy* filter_policy = nullptr;
  Cache* block_cache = nullptr;
  uint64_t cache_id = 0;
  vfs::RandomAccessFile* file = nullptr;
  ReadCounters* counters = nullptr;

  BlockHandle metaindex_handle;

  /// Index and filter, resolved once at Open and valid for the table's
  /// lifetime: pinned in the block cache through the retained handles when
  /// the cache is in use, table-owned otherwise.
  Block* index = nullptr;
  std::unique_ptr<Block> owned_index;
  Cache::Handle* index_handle = nullptr;

  std::unique_ptr<std::string> owned_filter_data;
  Cache::Handle* filter_handle = nullptr;
  std::unique_ptr<FilterBlockReader> filter;  // over the pinned filter bytes

  [[nodiscard]] bool use_cache() const {
    return block_cache != nullptr && !options.disable_cache;
  }

  void CacheKey(uint64_t offset, char out[16]) const {
    EncodeFixed64(out, cache_id);
    EncodeFixed64(out + 8, offset);
  }

  /// Inserts the block at `offset` into the cache, charged to the tenant;
  /// returns the pinned handle, which the caller releases.
  Cache::Handle* Insert(uint64_t offset, void* value, size_t charge,
                        void (*deleter)(const Slice&, void*)) const {
    char key[16];
    CacheKey(offset, key);
    return block_cache->Insert(Slice(key, sizeof key), value, charge, deleter,
                               options.tenant_id);
  }

  /// Decodes the data-block handle of an index entry. Corruption unless the
  /// block and its trailer end at or before the metaindex, so no run read
  /// or run offset computed from it can wrap.
  Status DecodeDataHandle(Slice index_value, BlockHandle* handle) const {
    LSMIO_RETURN_IF_ERROR(handle->DecodeFrom(&index_value));
    const uint64_t limit = metaindex_handle.offset();
    if (handle->size() > limit || limit - handle->size() < kBlockTrailerSize ||
        handle->offset() > limit - handle->size() - kBlockTrailerSize) {
      return Status::Corruption("data block handle out of range");
    }
    return Status::OK();
  }

  // --- the run read: every data block is fetched through these three ---

  /// Probes the block cache for the data block at `offset` and counts the
  /// outcome (a miss when the cache is off). Returns the pinned block, or
  /// null.
  Cache::Handle* LookupBlock(uint64_t offset) const {
    Cache::Handle* handle = nullptr;
    if (use_cache()) {
      char key[16];
      CacheKey(offset, key);
      handle = block_cache->Lookup(Slice(key, sizeof key));
    }
    if (counters) {
      (handle != nullptr ? counters->block_cache_hits : counters->block_cache_misses)
          .fetch_add(1, std::memory_order_relaxed);
    }
    return handle;
  }

  /// Reads the file bytes [start, end) into *run with one VFS read.
  Status ReadRun(uint64_t start, uint64_t end, Run* run) const {
    run->start = run->end = start;
    LSMIO_RETURN_IF_ERROR(file->Read(start, static_cast<size_t>(end - start),
                                     &run->bytes, &run->buffer));
    if (run->bytes.size() != end - start) {
      return Status::Corruption("truncated block read");
    }
    run->end = end;
    return Status::OK();
  }

  /// Makes the block at `handle`, which `run` holds, readable: decoded into
  /// the block cache when the read fills it (*cache_handle pins it), else
  /// *view points into the run's bytes, or into *scratch when the block is
  /// compressed.
  Status DecodeBlock(const ReadOptions& read_options, const Run& run,
                     const BlockHandle& handle, std::string* scratch,
                     Cache::Handle** cache_handle, Slice* view) const {
    const Slice raw(run.bytes.data() + (handle.offset() - run.start),
                    static_cast<size_t>(BlockEnd(handle) - handle.offset()));
    if (!use_cache() || !read_options.fill_cache) {
      return DecodeBlockView(raw, read_options, /*always_verify=*/false, scratch, view);
    }
    std::string contents;
    LSMIO_RETURN_IF_ERROR(
        DecodeBlockContents(raw, read_options, /*always_verify=*/false, &contents));
    auto* block = new Block(std::move(contents));
    *cache_handle = Insert(handle.offset(), block, block->size(), DeleteCachedBlock);
    return Status::OK();
  }

  /// An iterator over the data block at `index_value`, fetched from the
  /// cache, from the scan's current `window`, or by reading a new window.
  Iterator* NewBlockIterator(const ReadOptions& read_options, const Slice& index_value,
                             std::shared_ptr<Run>* window) const;
};

Table::Table(std::unique_ptr<Rep> rep) : rep_(std::move(rep)) {}

Table::~Table() {
  if (rep_->index_handle != nullptr) {
    rep_->block_cache->Release(rep_->index_handle);
  }
  if (rep_->filter_handle != nullptr) {
    rep_->filter.reset();  // reader points into the cached bytes
    rep_->block_cache->Release(rep_->filter_handle);
  }
}

Status Table::Open(const Options& options, const Comparator* comparator,
                   const FilterPolicy* filter_policy, Cache* block_cache,
                   uint64_t cache_id, vfs::RandomAccessFile* file,
                   uint64_t file_size, std::unique_ptr<Table>* table,
                   ReadCounters* counters) {
  table->reset();
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  std::string footer_scratch;
  Slice footer_input;
  LSMIO_RETURN_IF_ERROR(file->Read(file_size - Footer::kEncodedLength,
                                   Footer::kEncodedLength, &footer_input,
                                   &footer_scratch));
  if (footer_input.size() != Footer::kEncodedLength) {
    return Status::Corruption("truncated sstable footer");
  }

  Footer footer;
  LSMIO_RETURN_IF_ERROR(footer.DecodeFrom(&footer_input));

  // Read the index block (always checksum-verified: it's small and vital).
  std::string index_contents;
  LSMIO_RETURN_IF_ERROR(ReadBlockContents(file, {}, /*always_verify=*/true,
                                          footer.index_handle(), &index_contents));

  auto rep = std::make_unique<Rep>();
  rep->options = options;
  rep->comparator = comparator;
  rep->filter_policy = filter_policy;
  rep->block_cache = block_cache;
  rep->cache_id = cache_id;
  rep->file = file;
  rep->counters = counters;
  rep->metaindex_handle = footer.metaindex_handle();

  auto index = std::make_unique<Block>(std::move(index_contents));
  rep->index = index.get();
  if (rep->use_cache()) {
    rep->index_handle = rep->Insert(footer.index_handle().offset(), index.release(),
                                    rep->index->size(), DeleteCachedBlock);
  } else {
    rep->owned_index = std::move(index);
  }

  std::unique_ptr<Table> t(new Table(std::move(rep)));
  LSMIO_RETURN_IF_ERROR(t->ReadFilter(footer));
  *table = std::move(t);
  return Status::OK();
}

Status Table::ReadFilter(const Footer& footer) {
  Rep* r = rep_.get();
  if (r->filter_policy == nullptr) return Status::OK();

  // Both blocks are always checksum-verified, like the index: a corrupt
  // filter would silently turn present keys into misses.
  std::string meta_contents;
  LSMIO_RETURN_IF_ERROR(ReadBlockContents(r->file, {}, /*always_verify=*/true,
                                          footer.metaindex_handle(),
                                          &meta_contents));
  Block meta(std::move(meta_contents));
  std::unique_ptr<Iterator> iter(meta.NewIterator(BytewiseComparator()));
  const std::string key = std::string("filter.") + r->filter_policy->Name();
  iter->Seek(key);
  if (!iter->Valid() || iter->key() != Slice(key)) return Status::OK();

  Slice v = iter->value();
  BlockHandle filter_handle;
  LSMIO_RETURN_IF_ERROR(filter_handle.DecodeFrom(&v));
  auto filter_data = std::make_unique<std::string>();
  LSMIO_RETURN_IF_ERROR(ReadBlockContents(r->file, {}, /*always_verify=*/true,
                                          filter_handle, filter_data.get()));

  const Slice contents(*filter_data);
  if (r->use_cache()) {
    r->filter_handle = r->Insert(filter_handle.offset(), filter_data.release(),
                                 contents.size(), DeleteCachedFilterData);
  } else {
    r->owned_filter_data = std::move(filter_data);
  }
  r->filter = std::make_unique<FilterBlockReader>(r->filter_policy, contents);
  return Status::OK();
}

bool Table::FilterKeyMayMatch(uint64_t block_offset, const Slice& user_key) const {
  Rep* r = rep_.get();
  if (r->filter == nullptr) return true;
  if (r->counters) {
    r->counters->bloom_checked.fetch_add(1, std::memory_order_relaxed);
  }
  const bool may_match = r->filter->KeyMayMatch(block_offset, user_key);
  if (!may_match && r->counters) {
    r->counters->bloom_useful.fetch_add(1, std::memory_order_relaxed);
  }
  return may_match;
}

Iterator* Table::Rep::NewBlockIterator(const ReadOptions& read_options,
                                       const Slice& index_value,
                                       std::shared_ptr<Run>* window) const {
  BlockHandle handle;
  Status s = DecodeDataHandle(index_value, &handle);
  if (!s.ok()) return NewErrorIterator(s);

  Cache::Handle* cache_handle = LookupBlock(handle.offset());
  if (cache_handle == nullptr) {
    if (!(*window)->Holds(handle)) {
      uint64_t end = BlockEnd(handle);
      // A block at or past the window's start is a forward step: read a
      // whole window from it. Behind the window (a backward step or a
      // Seek), only the block itself.
      if (read_options.readahead_bytes > 0 && handle.offset() >= (*window)->start) {
        const uint64_t len = std::min<uint64_t>(read_options.readahead_bytes, kMaxRunBytes);
        end = std::max(end, std::min(handle.offset() + len, metaindex_handle.offset()));
        if (counters) {
          counters->readahead_bytes.fetch_add(end - handle.offset(),
                                              std::memory_order_relaxed);
        }
      }
      // A block iterator still viewing the old window keeps those bytes;
      // otherwise the buffer is reused.
      if (window->use_count() != 1) *window = std::make_shared<Run>();
      s = ReadRun(handle.offset(), end, window->get());
      if (!s.ok()) return NewErrorIterator(s);
    }
    std::string scratch;
    Slice view;
    s = DecodeBlock(read_options, **window, handle, &scratch, &cache_handle, &view);
    if (!s.ok()) return NewErrorIterator(s);
    if (cache_handle == nullptr) {
      auto* block = view.data() == scratch.data() ? new Block(std::move(scratch))
                                                  : new Block(view);
      Iterator* iter = block->NewIterator(comparator);
      iter->RegisterCleanup([block, run = *window] { delete block; });
      return iter;
    }
  }
  Iterator* iter =
      static_cast<Block*>(block_cache->Value(cache_handle))->NewIterator(comparator);
  Cache* cache = block_cache;
  iter->RegisterCleanup([cache, cache_handle] { cache->Release(cache_handle); });
  return iter;
}

Iterator* Table::NewIterator(const ReadOptions& options) const {
  const Rep* r = rep_.get();
  return NewTwoLevelIterator(
      r->index->NewIterator(r->comparator),
      [r, window = std::make_shared<Run>()](const ReadOptions& opts,
                                            const Slice& index_value) mutable {
        return r->NewBlockIterator(opts, index_value, &window);
      },
      options);
}

Status Table::MultiGet(
    const ReadOptions& options, std::span<const Slice> internal_keys,
    const std::function<void(size_t, const Slice&, const Slice&)>& handle_result)
    const {
  if (internal_keys.empty()) return Status::OK();
  Rep* r = rep_.get();

  // Pass 1: walk the index forward (keys are sorted, so block offsets are
  // non-decreasing), bloom-filter probes, group keys by data block. Block
  // j looks up keys[work[j-1].keys_end, work[j].keys_end).
  struct BlockWork {
    BlockHandle handle;
    size_t keys_end = 0;
    Cache::Handle* cache_handle = nullptr;  // the cached block; released on return
  };
  // Inline for a point lookup, which then allocates nothing here beyond
  // the block it reads and its iterators.
  InlineVector<BlockWork, 4> work;
  InlineVector<size_t, 8> keys;  // indices into internal_keys
  struct HandleRelease {
    InlineVector<BlockWork, 4>* work;
    Cache* cache;
    ~HandleRelease() {
      for (const BlockWork& w : *work) {
        if (w.cache_handle != nullptr) cache->Release(w.cache_handle);
      }
    }
  } release{&work, r->block_cache};
  {
    std::unique_ptr<Iterator> index_iter(r->index->NewIterator(r->comparator));
    BlockHandle handle;
    bool positioned = false;  // index_iter valid and `handle` decoded for it
    for (size_t i = 0; i < internal_keys.size(); ++i) {
      const Slice& ikey = internal_keys[i];
      // Ascending keys mean entries before the current one are already
      // proven smaller, so the iterator only ever moves forward: stay put
      // when the current entry still covers the key, try the adjacent
      // entry (the common case for a sequential batch) before paying a
      // binary re-seek.
      bool moved = false;
      if (!positioned) {
        index_iter->Seek(ikey);
        moved = true;
      } else if (r->comparator->Compare(ikey, index_iter->key()) > 0) {
        index_iter->Next();
        moved = true;
        if (index_iter->Valid() &&
            r->comparator->Compare(ikey, index_iter->key()) > 0) {
          index_iter->Seek(ikey);
        }
      }
      if (moved) {
        if (!index_iter->Valid()) {
          LSMIO_RETURN_IF_ERROR(index_iter->status());
          break;  // sorted: every remaining key is also past the last block
        }
        LSMIO_RETURN_IF_ERROR(r->DecodeDataHandle(index_iter->value(), &handle));
        positioned = true;
      }
      if (ikey.size() >= 8 &&
          !FilterKeyMayMatch(handle.offset(), ExtractUserKey(ikey))) {
        continue;  // definitively absent
      }
      if (work.empty() || work.back().handle.offset() != handle.offset()) {
        work.push_back(BlockWork{handle});
      }
      keys.push_back(i);
      work.back().keys_end = keys.size();
    }
  }
  if (work.empty()) return Status::OK();

  // Pass 2: cache lookups, so that pass 3 knows which blocks to read.
  for (BlockWork& w : work) w.cache_handle = r->LookupBlock(w.handle.offset());

  // Pass 3: seek each key inside its block, in block order. Runs of
  // adjacent missing blocks are fetched with one VFS read, and a run's
  // keys are all sought before the next run is read, so one buffer serves
  // every run.
  size_t next_key = 0;
  auto seek_keys = [&](Block* block, size_t keys_end) -> Status {
    std::unique_ptr<Iterator> block_iter(block->NewIterator(r->comparator));
    for (; next_key < keys_end; ++next_key) {
      const size_t i = keys[next_key];
      block_iter->Seek(internal_keys[i]);
      if (block_iter->Valid()) {
        handle_result(i, block_iter->key(), block_iter->value());
      }
      LSMIO_RETURN_IF_ERROR(block_iter->status());
    }
    return Status::OK();
  };
  Run run;
  std::string decompressed;  // the current block's, when not cached
  for (size_t j = 0; j < work.size();) {
    if (work[j].cache_handle != nullptr) {
      auto* block = static_cast<Block*>(r->block_cache->Value(work[j].cache_handle));
      LSMIO_RETURN_IF_ERROR(seek_keys(block, work[j].keys_end));
      ++j;
      continue;
    }
    // Extend the run while blocks are physically adjacent and also missing.
    size_t k = j;
    while (k + 1 < work.size() && work[k + 1].cache_handle == nullptr &&
           work[k + 1].handle.offset() == BlockEnd(work[k].handle) &&
           BlockEnd(work[k + 1].handle) - work[j].handle.offset() <= kMaxRunBytes) {
      ++k;
    }
    LSMIO_RETURN_IF_ERROR(
        r->ReadRun(work[j].handle.offset(), BlockEnd(work[k].handle), &run));
    if (k > j && r->counters) {
      r->counters->coalesced_reads.fetch_add(k - j, std::memory_order_relaxed);
    }
    for (; j <= k; ++j) {
      BlockWork& w = work[j];
      Slice view;
      LSMIO_RETURN_IF_ERROR(r->DecodeBlock(options, run, w.handle, &decompressed,
                                           &w.cache_handle, &view));
      if (w.cache_handle != nullptr) {
        LSMIO_RETURN_IF_ERROR(seek_keys(
            static_cast<Block*>(r->block_cache->Value(w.cache_handle)), w.keys_end));
      } else {
        // Zero-copy: the block views the run, or the decompressed bytes.
        Block block(view);
        LSMIO_RETURN_IF_ERROR(seek_keys(&block, w.keys_end));
      }
    }
  }
  return Status::OK();
}

}  // namespace lsmio::lsm
