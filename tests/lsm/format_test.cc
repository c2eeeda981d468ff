#include "lsm/format.h"

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32c.h"
#include "lsm/compression.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

TEST(BlockHandleTest, EncodeDecodeRoundTrip) {
  BlockHandle handle;
  handle.set_offset(0x123456789abcULL);
  handle.set_size(0xdef0);
  std::string encoded;
  handle.EncodeTo(&encoded);

  BlockHandle decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(decoded.offset(), handle.offset());
  EXPECT_EQ(decoded.size(), handle.size());
  EXPECT_TRUE(input.empty());
}

TEST(BlockHandleTest, DecodeRejectsTruncated) {
  BlockHandle handle;
  Slice input("\x80", 1);  // unterminated varint
  EXPECT_TRUE(handle.DecodeFrom(&input).IsCorruption());
}

TEST(FooterTest, EncodeDecodeRoundTrip) {
  Footer footer;
  BlockHandle metaindex;
  metaindex.set_offset(1000);
  metaindex.set_size(50);
  BlockHandle index;
  index.set_offset(1055);
  index.set_size(200);
  footer.set_metaindex_handle(metaindex);
  footer.set_index_handle(index);

  std::string encoded;
  footer.EncodeTo(&encoded);
  EXPECT_EQ(encoded.size(), Footer::kEncodedLength);

  Footer decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(decoded.metaindex_handle().offset(), 1000u);
  EXPECT_EQ(decoded.metaindex_handle().size(), 50u);
  EXPECT_EQ(decoded.index_handle().offset(), 1055u);
  EXPECT_EQ(decoded.index_handle().size(), 200u);
}

TEST(FooterTest, DecodeRejectsBadMagic) {
  Footer footer;
  std::string encoded;
  footer.EncodeTo(&encoded);
  encoded[encoded.size() - 1] ^= 0x42;  // corrupt the magic
  Slice input(encoded);
  Footer decoded;
  EXPECT_TRUE(decoded.DecodeFrom(&input).IsCorruption());
}

TEST(FooterTest, DecodeRejectsTooShort) {
  Footer decoded;
  Slice input("tiny", 4);
  EXPECT_TRUE(decoded.DecodeFrom(&input).IsCorruption());
}

class ReadBlockTest : public ::testing::Test {
 protected:
  // Writes `contents` as a block (with trailer) at the current end of /f,
  // returning its handle.
  BlockHandle WriteBlock(const std::string& contents, CompressionType type,
                         bool corrupt_crc = false) {
    std::string raw = contents;
    if (type == CompressionType::kLzLite) {
      std::string compressed;
      LzLiteCompressForTest(contents, &compressed);
      raw = compressed;
    }
    std::unique_ptr<vfs::FileHandle> handle;
    EXPECT_TRUE(fs_.OpenFileHandle("/f", true, {}, &handle).ok());
    const uint64_t offset = handle->Size();

    std::string trailer(1, static_cast<char>(type));
    uint32_t crc = crc32c::Value(raw.data(), raw.size());
    crc = crc32c::Extend(crc, trailer.data(), 1);
    if (corrupt_crc) crc ^= 0xdead;
    PutFixed32(&trailer, crc32c::Mask(crc));

    EXPECT_TRUE(handle->WriteAt(offset, raw).ok());
    EXPECT_TRUE(handle->WriteAt(offset + raw.size(), trailer).ok());

    BlockHandle block_handle;
    block_handle.set_offset(offset);
    block_handle.set_size(raw.size());
    return block_handle;
  }

  static void LzLiteCompressForTest(const Slice& in, std::string* out) {
    LzLiteCompress(in, out);
  }

  Status Read(const BlockHandle& handle, bool verify, std::string* out) {
    std::unique_ptr<vfs::RandomAccessFile> file;
    LSMIO_RETURN_IF_ERROR(fs_.NewRandomAccessFile("/f", {}, &file));
    ReadOptions options;
    options.verify_checksums = verify;
    return ReadBlockContents(file.get(), options, false, handle, out);
  }

  vfs::MemVfs fs_;
};

TEST_F(ReadBlockTest, UncompressedRoundTrip) {
  const std::string contents(1000, 'b');
  const BlockHandle handle = WriteBlock(contents, CompressionType::kNone);
  std::string out;
  ASSERT_TRUE(Read(handle, true, &out).ok());
  EXPECT_EQ(out, contents);
}

TEST_F(ReadBlockTest, CompressedRoundTrip) {
  const std::string contents(5000, 'z');
  const BlockHandle handle = WriteBlock(contents, CompressionType::kLzLite);
  std::string out;
  ASSERT_TRUE(Read(handle, true, &out).ok());
  EXPECT_EQ(out, contents);
}

TEST_F(ReadBlockTest, ChecksumMismatchDetected) {
  const BlockHandle handle =
      WriteBlock("payload", CompressionType::kNone, /*corrupt_crc=*/true);
  std::string out;
  EXPECT_TRUE(Read(handle, true, &out).IsCorruption());
  // Without verification the corrupt CRC goes unnoticed (by design).
  EXPECT_TRUE(Read(handle, false, &out).ok());
}

TEST_F(ReadBlockTest, CompressedBlockChecksumAlwaysVerified) {
  const BlockHandle handle =
      WriteBlock(std::string(5000, 'z'), CompressionType::kLzLite, /*corrupt_crc=*/true);
  std::string out;
  // The decompressor never sees a block its checksum does not vouch for.
  EXPECT_TRUE(Read(handle, false, &out).IsCorruption());
}

TEST_F(ReadBlockTest, TruncatedReadDetected) {
  const BlockHandle good = WriteBlock("payload", CompressionType::kNone);
  BlockHandle past_eof;
  past_eof.set_offset(good.offset() + 1000);
  past_eof.set_size(100);
  std::string out;
  EXPECT_TRUE(Read(past_eof, false, &out).IsCorruption());
}

TEST_F(ReadBlockTest, UnknownCompressionTypeRejected) {
  // Manually write a block whose type byte is invalid.
  std::unique_ptr<vfs::FileHandle> handle;
  ASSERT_TRUE(fs_.OpenFileHandle("/f", true, {}, &handle).ok());
  const std::string raw = "data";
  std::string trailer(1, '\x7');
  uint32_t crc = crc32c::Value(raw.data(), raw.size());
  crc = crc32c::Extend(crc, trailer.data(), 1);
  PutFixed32(&trailer, crc32c::Mask(crc));
  ASSERT_TRUE(handle->WriteAt(0, raw).ok());
  ASSERT_TRUE(handle->WriteAt(raw.size(), trailer).ok());

  BlockHandle bh;
  bh.set_offset(0);
  bh.set_size(raw.size());
  std::string out;
  EXPECT_TRUE(Read(bh, true, &out).IsCorruption());
}

}  // namespace
}  // namespace lsmio::lsm
