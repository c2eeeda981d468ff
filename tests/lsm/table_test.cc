#include "lsm/table.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "lsm/block.h"
#include "lsm/block_builder.h"
#include "lsm/cache.h"
#include "lsm/comparator.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/filter_policy.h"
#include "lsm/format.h"
#include "lsm/read_stats.h"
#include "lsm/table_builder.h"
#include "vfs/mem_vfs.h"
#include "vfs/posix_vfs.h"

namespace lsmio::lsm {
namespace {

// Point lookup of `user_key` in `table`: a MultiGet of one key.
bool TableGet(const Table& table, const std::string& user_key, std::string* value) {
  std::string seek;
  AppendInternalKey(&seek, user_key, kMaxSequenceNumber, kValueTypeForSeek);
  const Slice ikeys[] = {seek};
  bool found = false;
  const Status s = table.MultiGet({}, ikeys, [&](size_t, const Slice& k, const Slice& v) {
    ParsedInternalKey parsed;
    if (ParseInternalKey(k, &parsed) && parsed.user_key == Slice(user_key)) {
      *value = v.ToString();
      found = true;
    }
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return found;
}

// Builds a table of internal keys in a MemVfs and reopens it for reading.
class TableTest : public ::testing::Test {
 protected:
  TableTest() : icmp_(BytewiseComparator()), policy_(NewBloomFilterPolicy(10)) {}

  std::string IKey(const std::string& user_key, SequenceNumber seq = 1,
                   ValueType t = ValueType::kValue) {
    std::string encoded;
    AppendInternalKey(&encoded, user_key, seq, t);
    return encoded;
  }

  void BuildAndOpen(const std::map<std::string, std::string>& user_entries,
                    Options options = {}) {
    std::unique_ptr<vfs::WritableFile> file;
    ASSERT_TRUE(fs_.NewWritableFile("/t.sst", {}, &file).ok());
    TableBuilder builder(options, &icmp_, policy_.get(), file.get());
    for (const auto& [k, v] : user_entries) builder.Add(IKey(k), v);
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());

    uint64_t size = 0;
    ASSERT_TRUE(fs_.GetFileSize("/t.sst", &size).ok());
    ASSERT_TRUE(fs_.NewRandomAccessFile("/t.sst", {}, &raf_).ok());
    cache_ = NewLRUCache(1 << 20);
    ASSERT_TRUE(Table::Open(options, &icmp_, policy_.get(), cache_.get(), 1,
                            raf_.get(), size, &table_)
                    .ok());
  }

  // Gets a user key through a one-key MultiGet.
  bool Get(const std::string& user_key, std::string* value) {
    return TableGet(*table_, user_key, value);
  }

  vfs::MemVfs fs_;
  InternalKeyComparator icmp_;
  std::unique_ptr<const FilterPolicy> policy_;
  std::unique_ptr<vfs::RandomAccessFile> raf_;
  std::unique_ptr<Cache> cache_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, PointLookups) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    entries["key" + std::to_string(10000 + i)] = "value" + std::to_string(i);
  }
  BuildAndOpen(entries);

  std::string value;
  ASSERT_TRUE(Get("key10000", &value));
  EXPECT_EQ(value, "value0");
  ASSERT_TRUE(Get("key10250", &value));
  EXPECT_EQ(value, "value250");
  ASSERT_TRUE(Get("key10499", &value));
  EXPECT_EQ(value, "value499");
  EXPECT_FALSE(Get("key99999", &value));
  EXPECT_FALSE(Get("aaa", &value));
}

TEST_F(TableTest, FullScanInOrder) {
  std::map<std::string, std::string> entries;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    std::string key(8, '\0');
    rng.Fill(key.data(), key.size());
    entries[key] = std::to_string(i);
  }
  BuildAndOpen(entries);

  std::unique_ptr<Iterator> iter(table_->NewIterator({}));
  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), expected->first);
    EXPECT_EQ(iter->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, SeekWithinScan) {
  BuildAndOpen({{"b", "1"}, {"d", "2"}, {"f", "3"}});
  std::unique_ptr<Iterator> iter(table_->NewIterator({}));
  iter->Seek(IKey("c", kMaxSequenceNumber, kValueTypeForSeek));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "d");
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "f");
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(TableTest, SmallBlockSizeProducesManyBlocks) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 300; ++i) {
    entries["key" + std::to_string(1000 + i)] = std::string(100, 'v');
  }
  Options options;
  options.block_size = 256;  // force many data blocks
  BuildAndOpen(entries, options);

  std::string value;
  for (int i = 0; i < 300; i += 37) {
    ASSERT_TRUE(Get("key" + std::to_string(1000 + i), &value)) << i;
  }
  std::unique_ptr<Iterator> iter(table_->NewIterator({}));
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++count;
  EXPECT_EQ(count, 300);
}

TEST_F(TableTest, CompressedTableRoundTrips) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; ++i) {
    entries["key" + std::to_string(1000 + i)] = std::string(500, 'r');
  }
  Options options;
  options.compression = CompressionType::kLzLite;
  BuildAndOpen(entries, options);

  uint64_t compressed_size = 0;
  ASSERT_TRUE(fs_.GetFileSize("/t.sst", &compressed_size).ok());
  EXPECT_LT(compressed_size, 200 * 500u);  // repetitive values must shrink

  std::string value;
  ASSERT_TRUE(Get("key1000", &value));
  EXPECT_EQ(value, std::string(500, 'r'));
  ASSERT_TRUE(Get("key1199", &value));
}

TEST_F(TableTest, ChecksumVerificationDetectsCorruption) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; ++i) {
    entries["key" + std::to_string(i)] = "payload" + std::to_string(i);
  }
  Options options;
  BuildAndOpen(entries, options);

  // Flip a byte in the middle of the data region.
  std::unique_ptr<vfs::FileHandle> handle;
  ASSERT_TRUE(fs_.OpenFileHandle("/t.sst", false, {}, &handle).ok());
  ASSERT_TRUE(handle->WriteAt(100, "X").ok());

  // Reopen with a cold cache so the read hits the corrupted bytes.
  uint64_t size = 0;
  ASSERT_TRUE(fs_.GetFileSize("/t.sst", &size).ok());
  std::unique_ptr<Table> table2;
  ASSERT_TRUE(Table::Open(options, &icmp_, policy_.get(), nullptr, 2,
                          raf_.get(), size, &table2)
                  .ok());
  ReadOptions read_opts;
  read_opts.verify_checksums = true;
  std::unique_ptr<Iterator> iter(table2->NewIterator(read_opts));
  iter->SeekToFirst();
  while (iter->Valid()) iter->Next();
  EXPECT_TRUE(iter->status().IsCorruption());
}

TEST_F(TableTest, OpenRejectsNonTableFile) {
  ASSERT_TRUE(vfs::WriteStringToFile(fs_, "/junk", std::string(200, 'j')).ok());
  std::unique_ptr<vfs::RandomAccessFile> raf;
  ASSERT_TRUE(fs_.NewRandomAccessFile("/junk", {}, &raf).ok());
  std::unique_ptr<Table> table;
  EXPECT_TRUE(Table::Open({}, &icmp_, policy_.get(), nullptr, 1, raf.get(), 200,
                          &table)
                  .IsCorruption());
}

TEST_F(TableTest, OpenRejectsTooShortFile) {
  ASSERT_TRUE(vfs::WriteStringToFile(fs_, "/tiny", "x").ok());
  std::unique_ptr<vfs::RandomAccessFile> raf;
  ASSERT_TRUE(fs_.NewRandomAccessFile("/tiny", {}, &raf).ok());
  std::unique_ptr<Table> table;
  EXPECT_TRUE(
      Table::Open({}, &icmp_, policy_.get(), nullptr, 1, raf.get(), 1, &table)
          .IsCorruption());
}

// An index entry whose data block would not end before the metaindex is
// Corruption: scanned with a readahead window that covers its offset, a
// size that wraps the block's end must not pass for a block inside it.
TEST_F(TableTest, DataBlockHandleOutOfRangeIsCorruption) {
  BuildAndOpen({{"a", "1"}, {"b", "2"}});
  std::string file;
  ASSERT_TRUE(vfs::ReadFileToString(fs_, "/t.sst", &file).ok());
  Slice footer_input(file.data() + file.size() - Footer::kEncodedLength,
                     Footer::kEncodedLength);
  Footer footer;
  ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
  std::string index_contents;
  ASSERT_TRUE(
      ReadBlockContents(raf_.get(), {}, true, footer.index_handle(), &index_contents).ok());
  Block original_index(std::move(index_contents));
  std::unique_ptr<Iterator> first(original_index.NewIterator(&icmp_));
  first->SeekToFirst();
  ASSERT_TRUE(first->Valid());

  BlockHandle past_metaindex;
  past_metaindex.set_offset(footer.metaindex_handle().offset());
  past_metaindex.set_size(8);
  BlockHandle wraps;  // offset + size + trailer wraps to 5
  wraps.set_offset(16);
  wraps.set_size(~uint64_t{0} - 15);
  for (const BlockHandle& bad : {past_metaindex, wraps}) {
    // The table's one data block, then `bad`: a checksummed index appended
    // to the file, and a footer that names it.
    Options options;
    BlockBuilder index(&options);
    index.Add(first->key(), first->value());
    std::string bad_encoding;
    bad.EncodeTo(&bad_encoding);
    index.Add(IKey("z"), bad_encoding);
    std::string& block = index.Finish();
    std::string crafted = file;
    BlockHandle index_handle;
    index_handle.set_offset(crafted.size());
    index_handle.set_size(block.size());
    block.push_back(static_cast<char>(CompressionType::kNone));
    PutFixed32(&block, crc32c::Mask(crc32c::Value(block.data(), block.size())));
    crafted += block;
    Footer crafted_footer;
    crafted_footer.set_metaindex_handle(footer.metaindex_handle());
    crafted_footer.set_index_handle(index_handle);
    crafted_footer.EncodeTo(&crafted);
    ASSERT_TRUE(vfs::WriteStringToFile(fs_, "/bad.sst", crafted).ok());

    std::unique_ptr<vfs::RandomAccessFile> raf;
    ASSERT_TRUE(fs_.NewRandomAccessFile("/bad.sst", {}, &raf).ok());
    std::unique_ptr<Table> table;
    ASSERT_TRUE(
        Table::Open({}, &icmp_, nullptr, nullptr, 2, raf.get(), crafted.size(), &table).ok());
    ReadOptions scan;
    scan.readahead_bytes = 64 << 10;
    std::unique_ptr<Iterator> iter(table->NewIterator(scan));
    int count = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++count;
    EXPECT_EQ(count, 2);
    EXPECT_TRUE(iter->status().IsCorruption()) << iter->status().ToString();

    const std::string seek = IKey("y", kMaxSequenceNumber, kValueTypeForSeek);
    const Slice ikeys[] = {seek};
    EXPECT_TRUE(table->MultiGet({}, ikeys, [](size_t, const Slice&, const Slice&) {})
                    .IsCorruption());
  }
}

// A flipped byte in a table's metaindex or bloom filter block fails its
// checksum: the table does not open, so reads see Corruption instead of a
// filter that drops present keys.
TEST(TableMetaBlockTest, FlippedFilterOrMetaindexByteIsCorruption) {
  for (const bool flip_filter : {true, false}) {
    SCOPED_TRACE(flip_filter ? "filter byte" : "metaindex byte");
    vfs::MemVfs fs;
    Options options;
    options.vfs = &fs;
    options.disable_compaction = true;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    constexpr int kKeys = 2000;
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(db->Put({}, "key" + std::to_string(i), "value" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db->FlushMemTable(true).ok());
    db.reset();

    std::vector<std::string> children;
    ASSERT_TRUE(fs.ListDir("/db", &children).ok());
    std::string table_path;
    for (const std::string& child : children) {
      uint64_t number = 0;
      FileType type = FileType::kUnknown;
      if (ParseFileName(child, &number, &type) && type == FileType::kTableFile) {
        ASSERT_TRUE(table_path.empty()) << "more than one table";
        table_path = "/db/" + child;
      }
    }
    ASSERT_FALSE(table_path.empty());
    std::string file;
    ASSERT_TRUE(vfs::ReadFileToString(fs, table_path, &file).ok());
    Slice footer_input(file.data() + file.size() - Footer::kEncodedLength,
                       Footer::kEncodedLength);
    Footer footer;
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    BlockHandle target = footer.metaindex_handle();
    if (flip_filter) {
      std::unique_ptr<vfs::RandomAccessFile> raf;
      ASSERT_TRUE(fs.NewRandomAccessFile(table_path, {}, &raf).ok());
      std::string meta_contents;
      ASSERT_TRUE(ReadBlockContents(raf.get(), {}, true, target, &meta_contents).ok());
      Block meta(std::move(meta_contents));
      std::unique_ptr<Iterator> it(meta.NewIterator(BytewiseComparator()));
      it->Seek("filter.lsmio.BuiltinBloomFilter");
      ASSERT_TRUE(it->Valid());
      Slice handle_encoding = it->value();
      ASSERT_TRUE(target.DecodeFrom(&handle_encoding).ok());
    }
    std::unique_ptr<vfs::FileHandle> handle;
    ASSERT_TRUE(fs.OpenFileHandle(table_path, false, {}, &handle).ok());
    const uint64_t at = target.offset() + target.size() / 4;
    ASSERT_TRUE(handle->WriteAt(at, std::string(1, static_cast<char>(~file[at]))).ok());

    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    ReadOptions verified;
    verified.verify_checksums = true;
    int corrupt = 0;
    for (int i = 0; i < kKeys; ++i) {
      std::string value;
      const Status s = db->Get(verified, "key" + std::to_string(i), &value);
      ASSERT_FALSE(s.IsNotFound()) << "key" << i << " lost";
      if (s.IsCorruption()) ++corrupt;
    }
    EXPECT_GT(corrupt, 0);
  }
}

// Records every read that reaches the file it wraps.
class CountingFile final : public vfs::RandomAccessFile {
 public:
  explicit CountingFile(std::unique_ptr<vfs::RandomAccessFile> base)
      : base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              std::string* scratch) const override {
    reads.emplace_back(offset, n);
    return base_->Read(offset, n, result, scratch);
  }
  uint64_t Size() const override { return base_->Size(); }

  /// (offset, length) of each read, in order.
  mutable std::vector<std::pair<uint64_t, size_t>> reads;

 private:
  std::unique_ptr<vfs::RandomAccessFile> base_;
};

// Read/iterate matrix over {use_mmap} against the real file system: mmap is
// a PosixVfs feature, and pread and mmap must serve identical results.
class TableMatrixTest : public ::testing::TestWithParam<bool> {
 protected:
  TableMatrixTest() : icmp_(BytewiseComparator()), policy_(NewBloomFilterPolicy(10)) {}

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lsmio_table_matrix_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(vfs::PosixVfs().CreateDir(dir_.string()).ok());
  }

  void TearDown() override {
    table_.reset();
    raf_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string IKey(const std::string& user_key, SequenceNumber seq = 1,
                   ValueType t = ValueType::kValue) {
    std::string encoded;
    AppendInternalKey(&encoded, user_key, seq, t);
    return encoded;
  }

  void BuildAndOpen(const std::map<std::string, std::string>& user_entries,
                    bool cached = true) {
    const bool use_mmap = GetParam();
    vfs::Vfs& fs = vfs::PosixVfs();
    const std::string path = (dir_ / "t.sst").string();

    Options options;
    options.block_size = 512;

    std::unique_ptr<vfs::WritableFile> file;
    ASSERT_TRUE(fs.NewWritableFile(path, {}, &file).ok());
    TableBuilder builder(options, &icmp_, policy_.get(), file.get());
    for (const auto& [k, v] : user_entries) builder.Add(IKey(k), v);
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());

    uint64_t size = 0;
    ASSERT_TRUE(fs.GetFileSize(path, &size).ok());
    vfs::OpenOptions open_opts;
    open_opts.use_mmap = use_mmap;
    std::unique_ptr<vfs::RandomAccessFile> raf;
    ASSERT_TRUE(fs.NewRandomAccessFile(path, open_opts, &raf).ok());
    file_ = new CountingFile(std::move(raf));
    raf_.reset(file_);
    if (cached) cache_ = NewLRUCache(1 << 20);
    ASSERT_TRUE(Table::Open(options, &icmp_, policy_.get(), cache_.get(), 1,
                            raf_.get(), size, &table_, &counters_)
                    .ok());

    // Data blocks and the filter precede the metaindex.
    std::string scratch;
    Slice footer_input;
    ASSERT_TRUE(raf_->Read(size - Footer::kEncodedLength, Footer::kEncodedLength,
                           &footer_input, &scratch)
                    .ok());
    Footer footer;
    ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
    metaindex_offset_ = footer.metaindex_handle().offset();
    file_->reads.clear();
  }

  bool Get(const std::string& user_key, std::string* value) {
    return TableGet(*table_, user_key, value);
  }

  std::filesystem::path dir_;
  InternalKeyComparator icmp_;
  std::unique_ptr<const FilterPolicy> policy_;
  std::unique_ptr<vfs::RandomAccessFile> raf_;
  CountingFile* file_ = nullptr;  // raf_
  uint64_t metaindex_offset_ = 0;
  std::unique_ptr<Cache> cache_;
  std::unique_ptr<Table> table_;
  ReadCounters counters_;
};

TEST_P(TableMatrixTest, LookupsIterationAndMultiGet) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 400; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    entries[key] = "value" + std::to_string(i);
  }
  BuildAndOpen(entries);

  // Point lookups: hits and bloom-filtered misses.
  std::string value;
  ASSERT_TRUE(Get("key000000", &value));
  EXPECT_EQ(value, "value0");
  ASSERT_TRUE(Get("key000399", &value));
  EXPECT_EQ(value, "value399");
  EXPECT_FALSE(Get("key999999", &value));
  EXPECT_FALSE(Get("aaa", &value));

  // Full in-order iteration, with readahead hints enabled.
  ReadOptions scan;
  scan.readahead_bytes = 64 << 10;
  std::unique_ptr<Iterator> iter(table_->NewIterator(scan));
  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), expected->first);
    EXPECT_EQ(iter->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(iter->status().ok());
  EXPECT_GT(counters_.readahead_bytes.load(), 0u);

  // MultiGet over a sorted batch: present keys and duplicates. Results
  // must match the entries the table was built from.
  std::vector<std::string> storage;
  for (int i = 0; i < 400; i += 5) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    storage.push_back(IKey(key, kMaxSequenceNumber, kValueTypeForSeek));
    if (i % 50 == 0) storage.push_back(storage.back());  // duplicate
  }
  std::vector<Slice> ikeys(storage.begin(), storage.end());
  std::map<size_t, std::string> got;
  const Status s = table_->MultiGet(
      {}, ikeys, [&](size_t i, const Slice& k, const Slice& v) {
        ParsedInternalKey parsed;
        ASSERT_TRUE(ParseInternalKey(k, &parsed));
        if (parsed.user_key == ExtractUserKey(ikeys[i])) {
          got[i] = v.ToString();
        }
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (size_t i = 0; i < ikeys.size(); ++i) {
    const std::string user_key = ExtractUserKey(ikeys[i]).ToString();
    ASSERT_TRUE(got.count(i)) << user_key;
    EXPECT_EQ(got[i], entries[user_key]) << user_key;
  }

  // The same batch again: with a warm cache nothing should need the file.
  const uint64_t misses_before = counters_.block_cache_misses.load();
  std::map<size_t, std::string> again;
  ASSERT_TRUE(table_
                  ->MultiGet({}, ikeys,
                             [&](size_t i, const Slice&, const Slice& v) {
                               again[i] = v.ToString();
                             })
                  .ok());
  EXPECT_EQ(again.size(), ikeys.size());
  EXPECT_EQ(counters_.block_cache_misses.load(), misses_before);
}

TEST_P(TableMatrixTest, MultiGetColdCacheCoalesces) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 300; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    entries[key] = std::string(100, 'v');
  }
  BuildAndOpen(entries);

  std::vector<std::string> storage;
  for (int i = 0; i < 300; i += 2) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    storage.push_back(IKey(key, kMaxSequenceNumber, kValueTypeForSeek));
  }
  std::vector<Slice> ikeys(storage.begin(), storage.end());
  size_t found = 0;
  ASSERT_TRUE(table_
                  ->MultiGet({}, ikeys,
                             [&](size_t, const Slice&, const Slice&) { ++found; })
                  .ok());
  EXPECT_EQ(found, ikeys.size());
  // A dense batch over adjacent 512-byte blocks must coalesce reads.
  EXPECT_GT(counters_.coalesced_reads.load(), 0u);
}

// A forward scan with a 64 KiB readahead window over an uncached table
// reads one window per ~64 KiB of data blocks instead of one read per
// block, and a reverse scan reads each block alone. The 512-byte blocks
// straddle window edges, and one block is larger than the window.
TEST_P(TableMatrixTest, ReadaheadScansReadWindows) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 4000; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "key%06d", i);
    entries[key] = std::string(i == 2000 ? 100 << 10 : 200, static_cast<char>('a' + i % 26));
  }
  BuildAndOpen(entries, /*cached=*/false);
  constexpr uint64_t kWindow = 64 << 10;
  ReadOptions scan;
  scan.readahead_bytes = kWindow;

  {
    std::unique_ptr<Iterator> iter(table_->NewIterator(scan));
    auto expected = entries.begin();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++expected) {
      ASSERT_NE(expected, entries.end());
      ASSERT_EQ(ExtractUserKey(iter->key()).ToString(), expected->first);
      ASSERT_EQ(iter->value().ToString(), expected->second);
    }
    EXPECT_EQ(expected, entries.end());
    EXPECT_TRUE(iter->status().ok());
  }
  const auto& reads = file_->reads;
  EXPECT_LE(reads.size(), (metaindex_offset_ + kWindow - 1) / kWindow + 2);
  bool straddled = false;  // a block across a window edge starts the next window
  bool large = false;      // the large block is read whole
  for (size_t i = 0; i < reads.size(); ++i) {
    straddled = straddled || (i > 0 && reads[i].first < reads[i - 1].first + reads[i - 1].second);
    large = large || reads[i].second > kWindow;
  }
  EXPECT_TRUE(straddled);
  EXPECT_TRUE(large);

  file_->reads.clear();
  {
    std::unique_ptr<Iterator> iter(table_->NewIterator(scan));
    auto expected = entries.rbegin();
    for (iter->SeekToLast(); iter->Valid(); iter->Prev(), ++expected) {
      ASSERT_NE(expected, entries.rend());
      ASSERT_EQ(ExtractUserKey(iter->key()).ToString(), expected->first);
      ASSERT_EQ(iter->value().ToString(), expected->second);
    }
    EXPECT_EQ(expected, entries.rend());
    EXPECT_TRUE(iter->status().ok());
  }
  uint64_t reverse_bytes = 0;
  for (const auto& [offset, n] : reads) reverse_bytes += n;
  EXPECT_LE(reverse_bytes, metaindex_offset_ + kWindow);
}

INSTANTIATE_TEST_SUITE_P(Mmap, TableMatrixTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Mmap" : "Pread");
                         });

}  // namespace
}  // namespace lsmio::lsm
