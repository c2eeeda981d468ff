#include "lsm/format.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "lsm/compression.h"

namespace lsmio::lsm {

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (!GetVarint64(input, &offset_) || !GetVarint64(input, &size_)) {
    return Status::Corruption("bad block handle");
  }
  return Status::OK();
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  metaindex_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);  // pad
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic =
      (static_cast<uint64_t>(magic_hi) << 32) | magic_lo;
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an lsmio table (bad magic number)");
  }
  LSMIO_RETURN_IF_ERROR(metaindex_handle_.DecodeFrom(input));
  LSMIO_RETURN_IF_ERROR(index_handle_.DecodeFrom(input));
  // Skip padding.
  const char* end = magic_ptr + 8;
  *input = Slice(end, static_cast<size_t>(input->data() + input->size() - end));
  return Status::OK();
}

Status DecodeBlockContents(const Slice& raw, const ReadOptions& options,
                           bool always_verify, std::string* contents) {
  Slice view;
  LSMIO_RETURN_IF_ERROR(DecodeBlockView(raw, options, always_verify, contents, &view));
  // A decompressed block is already in *contents; a stored one is in raw.
  if (view.data() != contents->data()) contents->assign(view.data(), view.size());
  return Status::OK();
}

Status DecodeBlockView(const Slice& raw, const ReadOptions& options,
                       bool always_verify, std::string* scratch, Slice* view) {
  if (raw.size() < kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }
  const size_t n = raw.size() - kBlockTrailerSize;
  const char* data = raw.data();
  const auto type = static_cast<CompressionType>(data[n]);
  // A compressed block's checksum is always verified, so the decompressor
  // never parses bytes the checksum does not vouch for.
  if (options.verify_checksums || always_verify || type == CompressionType::kLzLite) {
    const uint32_t expected = crc32c::Unmask(DecodeFixed32(data + n + 1));
    const uint32_t actual = crc32c::Value(data, n + 1);
    if (actual != expected) {
      return Status::Corruption("block checksum mismatch");
    }
  }

  switch (type) {
    case CompressionType::kNone:
      *view = Slice(data, n);
      return Status::OK();
    case CompressionType::kLzLite:
      LSMIO_RETURN_IF_ERROR(LzLiteDecompress(Slice(data, n), scratch));
      *view = Slice(*scratch);
      return Status::OK();
  }
  return Status::Corruption("unknown block compression type");
}

Status ReadBlockContents(vfs::RandomAccessFile* file, const ReadOptions& options,
                         bool always_verify, const BlockHandle& handle,
                         std::string* contents) {
  const size_t n = static_cast<size_t>(handle.size());
  std::string scratch;
  Slice raw;
  LSMIO_RETURN_IF_ERROR(
      file->Read(handle.offset(), n + kBlockTrailerSize, &raw, &scratch));
  if (raw.size() != n + kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }
  return DecodeBlockContents(raw, options, always_verify, contents);
}

}  // namespace lsmio::lsm
