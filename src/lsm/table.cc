#include "lsm/table.h"

#include <algorithm>
#include <atomic>

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

/// Upper bound on one coalesced MultiGet read (several adjacent blocks
/// fetched with a single VFS read).
constexpr uint64_t kMaxCoalescedReadBytes = 1 << 20;

void DeleteCachedBlock(const Slice&, void* value) {
  delete static_cast<Block*>(value);
}

void DeleteCachedFilterData(const Slice&, void* value) {
  delete static_cast<std::string*>(value);
}

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

  /// End of the last readahead window hinted to the VFS; avoids re-hinting
  /// the same range for every block of a sequential scan.
  std::atomic<uint64_t> hinted_end{0};

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

  void CountCacheHit() const {
    if (counters) counters->block_cache_hits.fetch_add(1, std::memory_order_relaxed);
  }
  void CountCacheMiss() const {
    if (counters) counters->block_cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
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
  ReadOptions opt;
  opt.verify_checksums = options.paranoid_checks;
  std::string index_contents;
  LSMIO_RETURN_IF_ERROR(ReadBlockContents(file, opt, /*always_verify=*/true,
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

  auto* t = new Table(std::move(rep));
  // Best-effort: reads work without a filter, just with more block probes.
  t->ReadFilter(footer).IgnoreError();
  table->reset(t);
  return Status::OK();
}

Status Table::ReadFilter(const Footer& footer) {
  Rep* r = rep_.get();
  if (r->filter_policy == nullptr) return Status::OK();

  ReadOptions opt;
  opt.verify_checksums = r->options.paranoid_checks;
  std::string meta_contents;
  LSMIO_RETURN_IF_ERROR(ReadBlockContents(r->file, opt, false,
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
  LSMIO_RETURN_IF_ERROR(
      ReadBlockContents(r->file, opt, false, filter_handle, filter_data.get()));

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

void Table::MaybeReadahead(const ReadOptions& options,
                           const BlockHandle& handle) const {
  if (options.readahead_bytes == 0) return;
  Rep* r = rep_.get();
  const uint64_t span = handle.size() + kBlockTrailerSize;
  const uint64_t need = handle.offset() + span;
  if (need <= r->hinted_end.load(std::memory_order_relaxed)) return;
  const uint64_t len = std::max<uint64_t>(span, options.readahead_bytes);
  r->file->Hint(handle.offset(), len);
  r->hinted_end.store(handle.offset() + len, std::memory_order_relaxed);
  if (r->counters) {
    r->counters->readahead_bytes.fetch_add(len, std::memory_order_relaxed);
  }
}

Iterator* Table::NewBlockIterator(const ReadOptions& options,
                                  const Slice& index_value) const {
  Rep* r = rep_.get();
  Slice input = index_value;
  BlockHandle handle;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) return NewErrorIterator(s);

  MaybeReadahead(options, handle);

  // Block-cache key: cache_id (8) | block offset (8).
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;
  const bool use_cache = r->use_cache();

  if (use_cache) {
    char cache_key[16];
    r->CacheKey(handle.offset(), cache_key);
    cache_handle = r->block_cache->Lookup(Slice(cache_key, sizeof cache_key));
    if (cache_handle != nullptr) {
      r->CountCacheHit();
      block = static_cast<Block*>(r->block_cache->Value(cache_handle));
    } else {
      r->CountCacheMiss();
      std::string contents;
      s = ReadBlockContents(r->file, options, r->options.paranoid_checks,
                            handle, &contents);
      if (!s.ok()) return NewErrorIterator(s);
      block = new Block(std::move(contents));
      if (options.fill_cache) {
        cache_handle = r->Insert(handle.offset(), block, block->size(),
                                 DeleteCachedBlock);
      }
    }
  } else {
    std::string contents;
    s = ReadBlockContents(r->file, options, r->options.paranoid_checks, handle,
                          &contents);
    if (!s.ok()) return NewErrorIterator(s);
    block = new Block(std::move(contents));
  }

  Iterator* iter = block->NewIterator(r->comparator);
  if (cache_handle != nullptr) {
    Cache* cache = r->block_cache;
    iter->RegisterCleanup([cache, cache_handle] { cache->Release(cache_handle); });
  } else if (!use_cache || !options.fill_cache) {
    iter->RegisterCleanup([block] { delete block; });
  }
  return iter;
}

Iterator* Table::NewIterator(const ReadOptions& options) const {
  const Table* self = this;
  return NewTwoLevelIterator(
      rep_->index->NewIterator(rep_->comparator),
      [self](const ReadOptions& opts, const Slice& index_value) {
        return self->NewBlockIterator(opts, index_value);
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
        Slice hv = index_iter->value();
        LSMIO_RETURN_IF_ERROR(handle.DecodeFrom(&hv));
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
  const bool use_cache = r->use_cache();
  for (BlockWork& w : work) {
    if (use_cache) {
      char cache_key[16];
      r->CacheKey(w.handle.offset(), cache_key);
      w.cache_handle = r->block_cache->Lookup(Slice(cache_key, sizeof cache_key));
    }
    if (w.cache_handle != nullptr) {
      r->CountCacheHit();
    } else {
      r->CountCacheMiss();
    }
  }

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
  const bool cache_fill = use_cache && options.fill_cache;
  std::string buffer;        // the current run's bytes
  std::string decompressed;  // the current block's, when not cached
  for (size_t j = 0; j < work.size();) {
    if (work[j].cache_handle != nullptr) {
      auto* block = static_cast<Block*>(r->block_cache->Value(work[j].cache_handle));
      LSMIO_RETURN_IF_ERROR(seek_keys(block, work[j].keys_end));
      ++j;
      continue;
    }
    // Extend the run while blocks are physically adjacent
    // (offset + size + trailer == next offset) and also missing.
    size_t k = j;
    const uint64_t start = work[j].handle.offset();
    uint64_t end = start + work[j].handle.size() + kBlockTrailerSize;
    while (k + 1 < work.size() && work[k + 1].cache_handle == nullptr &&
           work[k + 1].handle.offset() == end &&
           end - start + work[k + 1].handle.size() + kBlockTrailerSize <=
               kMaxCoalescedReadBytes) {
      ++k;
      end = work[k].handle.offset() + work[k].handle.size() + kBlockTrailerSize;
    }
    Slice raw;
    LSMIO_RETURN_IF_ERROR(
        r->file->Read(start, static_cast<size_t>(end - start), &raw, &buffer));
    if (raw.size() != end - start) {
      return Status::Corruption("truncated coalesced block read");
    }
    if (k > j && r->counters) {
      r->counters->coalesced_reads.fetch_add(k - j, std::memory_order_relaxed);
    }
    for (; j <= k; ++j) {
      BlockWork& w = work[j];
      const Slice block_raw(
          raw.data() + (w.handle.offset() - start),
          static_cast<size_t>(w.handle.size()) + kBlockTrailerSize);
      if (cache_fill) {
        std::string contents;
        LSMIO_RETURN_IF_ERROR(DecodeBlockContents(block_raw, options,
                                                  r->options.paranoid_checks,
                                                  &contents));
        auto* block = new Block(std::move(contents));
        w.cache_handle = r->Insert(w.handle.offset(), block, block->size(),
                                   DeleteCachedBlock);
        LSMIO_RETURN_IF_ERROR(seek_keys(block, w.keys_end));
      } else {
        // Zero-copy: the block views the read buffer, or the decompressed
        // bytes when the block is compressed.
        Slice view;
        LSMIO_RETURN_IF_ERROR(DecodeBlockView(block_raw, options,
                                              r->options.paranoid_checks,
                                              &decompressed, &view));
        Block block(view);
        LSMIO_RETURN_IF_ERROR(seek_keys(&block, w.keys_end));
      }
    }
  }
  return Status::OK();
}

uint64_t Table::ApproximateOffsetOf(const Slice& internal_key) const {
  std::unique_ptr<Iterator> index_iter(rep_->index->NewIterator(rep_->comparator));
  index_iter->Seek(internal_key);
  if (index_iter->Valid()) {
    Slice input = index_iter->value();
    BlockHandle handle;
    if (handle.DecodeFrom(&input).ok()) return handle.offset();
  }
  return rep_->metaindex_handle.offset();  // ≈ file end
}

}  // namespace lsmio::lsm
