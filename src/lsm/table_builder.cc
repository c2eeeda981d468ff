#include "lsm/table_builder.h"

#include <cassert>

#include "common/coding.h"
#include "common/crc32c.h"
#include "lsm/block_builder.h"
#include "lsm/comparator.h"
#include "lsm/dbformat.h"
#include "lsm/compression.h"
#include "lsm/filter_block.h"
#include "lsm/format.h"

namespace lsmio::lsm {

struct TableBuilder::Rep {
  Rep(const Options& opt, const Comparator* cmp, const FilterPolicy* filter,
      vfs::WritableFile* f)
      : options(opt),
        comparator(cmp),
        file(f),
        data_block(&options),
        index_block(&options),
        filter_block(filter == nullptr
                         ? nullptr
                         : std::make_unique<FilterBlockBuilder>(filter)) {}

  Options options;
  const Comparator* comparator;
  vfs::WritableFile* file;
  uint64_t offset = 0;
  Status status;
  BlockBuilder data_block;
  BlockBuilder index_block;
  std::unique_ptr<FilterBlockBuilder> filter_block;
  std::string last_key;
  uint64_t num_entries = 0;
  bool closed = false;

  // Deferred index entry: emitted when the next block's first key is known,
  // allowing a shortened separator key.
  bool pending_index_entry = false;
  BlockHandle pending_handle;

  std::string compressed_output;
};

TableBuilder::TableBuilder(const Options& options, const Comparator* comparator,
                           const FilterPolicy* filter_policy,
                           vfs::WritableFile* file)
    : rep_(std::make_unique<Rep>(options, comparator, filter_policy, file)) {
  if (rep_->filter_block != nullptr) rep_->filter_block->StartBlock(0);
}

TableBuilder::~TableBuilder() { assert(rep_->closed); }

void TableBuilder::Add(const Slice& key, const Slice& value) {
  Rep* r = rep_.get();
  assert(!r->closed);
  if (!r->status.ok()) return;
  if (r->num_entries > 0) {
    assert(r->comparator->Compare(key, Slice(r->last_key)) > 0);
  }

  if (r->pending_index_entry) {
    assert(r->data_block.empty());
    r->comparator->FindShortestSeparator(&r->last_key, key);
    std::string handle_encoding;
    r->pending_handle.EncodeTo(&handle_encoding);
    r->index_block.Add(Slice(r->last_key), Slice(handle_encoding));
    r->pending_index_entry = false;
  }

  // Filter on the user key: lookups probe with a fresh sequence tag, so the
  // tag bytes must not participate in the bloom hash.
  if (r->filter_block != nullptr) {
    r->filter_block->AddKey(key.size() >= 8 ? ExtractUserKey(key) : key);
  }

  r->last_key.assign(key.data(), key.size());
  ++r->num_entries;
  r->data_block.Add(key, value);

  if (r->data_block.CurrentSizeEstimate() >= r->options.block_size) Flush();
}

void TableBuilder::Flush() {
  Rep* r = rep_.get();
  assert(!r->closed);
  if (!r->status.ok() || r->data_block.empty()) return;
  assert(!r->pending_index_entry);
  WriteBlock(&r->data_block, &r->pending_handle);
  if (r->status.ok()) {
    r->pending_index_entry = true;
    r->status = r->file->Flush();
  }
  if (r->filter_block != nullptr) r->filter_block->StartBlock(r->offset);
}

void TableBuilder::WriteBlock(BlockBuilder* block, BlockHandle* handle) {
  Rep* r = rep_.get();
  std::string& raw = block->Finish();

  std::string* block_contents = &raw;
  CompressionType type = r->options.compression;
  switch (type) {
    case CompressionType::kNone:
      break;
    case CompressionType::kLzLite: {
      LzLiteCompress(raw, &r->compressed_output);
      if (r->compressed_output.size() < raw.size() - raw.size() / 8) {
        block_contents = &r->compressed_output;
      } else {
        // Not compressible enough: store raw.
        type = CompressionType::kNone;
      }
      break;
    }
  }
  WriteRawBlock(block_contents, type, handle);
  r->compressed_output.clear();
  block->Reset();
}

void TableBuilder::WriteRawBlock(std::string* contents, CompressionType type,
                                 BlockHandle* handle) {
  Rep* r = rep_.get();
  const size_t size = contents->size();
  handle->set_offset(r->offset);
  handle->set_size(size);
  char trailer[kBlockTrailerSize];
  trailer[0] = static_cast<char>(type);
  uint32_t crc = crc32c::Value(contents->data(), size);
  crc = crc32c::Extend(crc, trailer, 1);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  contents->append(trailer, kBlockTrailerSize);
  r->status = r->file->Append(Slice(*contents));
  if (r->status.ok()) r->offset += size + kBlockTrailerSize;
}

Status TableBuilder::Finish() {
  Rep* r = rep_.get();
  Flush();
  assert(!r->closed);
  r->closed = true;

  BlockHandle filter_block_handle;
  BlockHandle metaindex_block_handle;
  BlockHandle index_block_handle;

  // Filter block (raw, uncompressed).
  if (r->status.ok() && r->filter_block != nullptr) {
    WriteRawBlock(&r->filter_block->Finish(), CompressionType::kNone,
                  &filter_block_handle);
  }

  // Metaindex block.
  if (r->status.ok()) {
    BlockBuilder metaindex_block(&r->options);
    if (r->filter_block != nullptr) {
      std::string handle_encoding;
      filter_block_handle.EncodeTo(&handle_encoding);
      metaindex_block.Add("filter.lsmio.BuiltinBloomFilter",
                          Slice(handle_encoding));
    }
    WriteBlock(&metaindex_block, &metaindex_block_handle);
  }

  // Index block.
  if (r->status.ok()) {
    if (r->pending_index_entry) {
      r->comparator->FindShortSuccessor(&r->last_key);
      std::string handle_encoding;
      r->pending_handle.EncodeTo(&handle_encoding);
      r->index_block.Add(Slice(r->last_key), Slice(handle_encoding));
      r->pending_index_entry = false;
    }
    WriteBlock(&r->index_block, &index_block_handle);
  }

  // Footer.
  if (r->status.ok()) {
    Footer footer;
    footer.set_metaindex_handle(metaindex_block_handle);
    footer.set_index_handle(index_block_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    r->status = r->file->Append(Slice(footer_encoding));
    if (r->status.ok()) r->offset += footer_encoding.size();
  }
  return r->status;
}

void TableBuilder::Abandon() {
  rep_->closed = true;
}

Status TableBuilder::status() const { return rep_->status; }
uint64_t TableBuilder::FileSize() const { return rep_->offset; }

}  // namespace lsmio::lsm
