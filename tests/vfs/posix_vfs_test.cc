#include "vfs/posix_vfs.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "common/rate_limiter.h"
#include "vfs/fault_vfs.h"
#include "vfs/trace_vfs.h"

namespace lsmio::vfs {
namespace {

class PosixVfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lsmio_posix_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(PosixVfs().CreateDir(dir_.string()).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(PosixVfsTest, WriteSyncReadBack) {
  Vfs& fs = PosixVfs();
  ASSERT_TRUE(WriteStringToFile(fs, Path("f"), "persisted bytes").ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(fs, Path("f"), &contents).ok());
  EXPECT_EQ(contents, "persisted bytes");
}

TEST_F(PosixVfsTest, MissingFileIsNotFound) {
  Vfs& fs = PosixVfs();
  std::unique_ptr<SequentialFile> file;
  EXPECT_TRUE(fs.NewSequentialFile(Path("missing"), {}, &file).IsNotFound());
}

TEST_F(PosixVfsTest, RandomAccessWithAndWithoutMmap) {
  Vfs& fs = PosixVfs();
  std::string payload(100000, '\0');
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<char>(i % 251);
  ASSERT_TRUE(WriteStringToFile(fs, Path("f"), payload).ok());

  for (const bool mmap : {false, true}) {
    OpenOptions opts;
    opts.use_mmap = mmap;
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(fs.NewRandomAccessFile(Path("f"), opts, &file).ok());
    EXPECT_EQ(file->Size(), payload.size());
    std::string scratch;
    Slice result;
    ASSERT_TRUE(file->Read(50000, 123, &result, &scratch).ok());
    EXPECT_EQ(result.ToString(), payload.substr(50000, 123)) << "mmap=" << mmap;
  }
}

// A handle reads bytes appended after it opened, with or without a
// mapping: a read past the mapping falls back to pread.
TEST_F(PosixVfsTest, RandomAccessReadsBytesAppendedAfterOpen) {
  Vfs& fs = PosixVfs();
  for (const bool mmap : {false, true}) {
    const std::string path = Path(mmap ? "mapped" : "pread");
    std::unique_ptr<WritableFile> out;
    ASSERT_TRUE(fs.NewWritableFile(path, {}, &out).ok());
    ASSERT_TRUE(out->Append("head").ok());
    OpenOptions opts;
    opts.use_mmap = mmap;
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(fs.NewRandomAccessFile(path, opts, &file).ok());
    ASSERT_TRUE(out->Append("tail").ok());
    ASSERT_TRUE(out->Close().ok());

    std::string scratch;
    Slice result;
    ASSERT_TRUE(file->Read(0, 2, &result, &scratch).ok());
    EXPECT_EQ(result.ToString(), "he") << "mmap=" << mmap;
    ASSERT_TRUE(file->Read(2, 100, &result, &scratch).ok());
    EXPECT_EQ(result.ToString(), "adtail") << "mmap=" << mmap;
    EXPECT_EQ(file->Size(), 8u) << "mmap=" << mmap;
  }
}

TEST_F(PosixVfsTest, FileHandleStridedWrites) {
  Vfs& fs = PosixVfs();
  std::unique_ptr<FileHandle> handle;
  ASSERT_TRUE(fs.OpenFileHandle(Path("f"), true, {}, &handle).ok());
  ASSERT_TRUE(handle->WriteAt(4096, "stripe1").ok());
  ASSERT_TRUE(handle->WriteAt(0, "stripe0").ok());
  ASSERT_TRUE(handle->Sync().ok());
  EXPECT_EQ(handle->Size(), 4096u + 7);

  std::string scratch;
  Slice result;
  ASSERT_TRUE(handle->ReadAt(4096, 7, &result, &scratch).ok());
  EXPECT_EQ(result.ToString(), "stripe1");
  ASSERT_TRUE(handle->Close().ok());
}

TEST_F(PosixVfsTest, RenameAndRemove) {
  Vfs& fs = PosixVfs();
  ASSERT_TRUE(WriteStringToFile(fs, Path("a"), "x").ok());
  ASSERT_TRUE(fs.RenameFile(Path("a"), Path("b")).ok());
  EXPECT_FALSE(fs.FileExists(Path("a")));
  EXPECT_TRUE(fs.FileExists(Path("b")));
  ASSERT_TRUE(fs.RemoveFile(Path("b")).ok());
  EXPECT_FALSE(fs.FileExists(Path("b")));
}

TEST_F(PosixVfsTest, ListDir) {
  Vfs& fs = PosixVfs();
  ASSERT_TRUE(WriteStringToFile(fs, Path("one"), "1").ok());
  ASSERT_TRUE(WriteStringToFile(fs, Path("two"), "2").ok());
  std::vector<std::string> children;
  ASSERT_TRUE(fs.ListDir(dir_.string(), &children).ok());
  EXPECT_EQ(children.size(), 2u);
}

TEST_F(PosixVfsTest, GetFileSize) {
  Vfs& fs = PosixVfs();
  ASSERT_TRUE(WriteStringToFile(fs, Path("f"), std::string(12345, 'x')).ok());
  uint64_t size = 0;
  ASSERT_TRUE(fs.GetFileSize(Path("f"), &size).ok());
  EXPECT_EQ(size, 12345u);
}

TEST_F(PosixVfsTest, LargeSequentialReadInChunks) {
  Vfs& fs = PosixVfs();
  const std::string payload(3 * 1024 * 1024 + 17, 'q');
  ASSERT_TRUE(WriteStringToFile(fs, Path("big"), payload).ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(fs, Path("big"), &contents).ok());
  EXPECT_EQ(contents.size(), payload.size());
  EXPECT_EQ(contents, payload);
}

/// Rise in the process-wide write-behind counters.
struct WritebackRise {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

/// Writes 3.5 MiB in 64 KiB appends to `path` through `fs` (wrapped in a
/// rate limiter when `limiter` is set), syncs and closes it, checks that it
/// reads back byte-identical and returns the counters' rise.
WritebackRise WriteThreeAndAHalfMiB(Vfs& fs, const std::string& path,
                                    bool write_behind,
                                    RateLimiter* limiter = nullptr) {
  constexpr size_t kChunk = 64 * 1024;
  constexpr size_t kChunks = 56;  // 3.5 MiB
  const PosixVfsStats& stats = GetPosixVfsStats();
  const uint64_t calls0 = stats.writeback_calls.load();
  const uint64_t bytes0 = stats.writeback_bytes.load();
  OpenOptions opts;
  opts.write_behind = write_behind;
  std::unique_ptr<WritableFile> file;
  EXPECT_TRUE(fs.NewWritableFile(path, opts, &file).ok());
  if (file == nullptr) return {};
  file = MaybeRateLimit(std::move(file), limiter, RateLimiter::Priority::kHigh);
  std::string payload;
  for (size_t i = 0; i < kChunks; ++i) {
    const std::string chunk(kChunk, static_cast<char>('a' + i % 26));
    EXPECT_TRUE(file->Append(chunk).ok());
    payload += chunk;
  }
  EXPECT_TRUE(file->Sync().ok());
  EXPECT_TRUE(file->Close().ok());
  std::string contents;
  EXPECT_TRUE(ReadFileToString(fs, path, &contents).ok());
  EXPECT_TRUE(contents == payload) << path << " did not read back intact";
  return {stats.writeback_calls.load() - calls0,
          stats.writeback_bytes.load() - bytes0};
}

TEST_F(PosixVfsTest, WriteBehindStartsWritebackOfEachMiB) {
  // Writeback starts at 1, 2 and 3 MiB; the half-MiB tail is left to Sync.
  const WritebackRise rise = WriteThreeAndAHalfMiB(PosixVfs(), Path("wb"), true);
  EXPECT_EQ(rise.calls, 3u);
  EXPECT_EQ(rise.bytes, 3u << 20);

  const WritebackRise off = WriteThreeAndAHalfMiB(PosixVfs(), Path("plain"), false);
  EXPECT_EQ(off.calls, 0u);
  EXPECT_EQ(off.bytes, 0u);
}

TEST_F(PosixVfsTest, WriteBehindSurvivesEveryWrapper) {
  FaultVfs fault(PosixVfs());
  TraceContext ctx(1);
  TraceVfs trace(PosixVfs(), ctx, 0);
  RateLimiter limiter(1ull << 40);
  struct Case {
    const char* name;
    Vfs& fs;
    RateLimiter* limiter;
  };
  for (const Case& c : {Case{"fault", fault, nullptr}, Case{"trace", trace, nullptr},
                        Case{"rate_limited", PosixVfs(), &limiter}}) {
    const WritebackRise rise =
        WriteThreeAndAHalfMiB(c.fs, Path(c.name), true, c.limiter);
    EXPECT_EQ(rise.calls, 3u) << c.name;
    EXPECT_EQ(rise.bytes, 3u << 20) << c.name;
  }
}

}  // namespace
}  // namespace lsmio::vfs
