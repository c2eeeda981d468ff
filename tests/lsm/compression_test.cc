#include "lsm/compression.h"

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/random.h"

namespace lsmio::lsm {
namespace {

void RoundTrip(const std::string& input) {
  std::string compressed;
  LzLiteCompress(input, &compressed);
  std::string output;
  ASSERT_TRUE(LzLiteDecompress(compressed, &output).ok()) << "n=" << input.size();
  EXPECT_EQ(output, input);
}

TEST(LzLiteTest, EmptyInput) { RoundTrip(""); }

TEST(LzLiteTest, TinyInputs) {
  RoundTrip("a");
  RoundTrip("ab");
  RoundTrip("abc");
  RoundTrip("abcd");
  RoundTrip("abcdefg");
}

TEST(LzLiteTest, HighlyRepetitiveCompressesWell) {
  const std::string input(100000, 'z');
  std::string compressed;
  LzLiteCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 20);
  std::string output;
  ASSERT_TRUE(LzLiteDecompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST(LzLiteTest, RepeatedPattern) {
  std::string input;
  for (int i = 0; i < 5000; ++i) input += "the quick brown fox ";
  std::string compressed;
  LzLiteCompress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 4);
  std::string output;
  ASSERT_TRUE(LzLiteDecompress(compressed, &output).ok());
  EXPECT_EQ(output, input);
}

TEST(LzLiteTest, IncompressibleRandomDataSurvives) {
  Rng rng(55);
  std::string input(65536, '\0');
  rng.Fill(input.data(), input.size());
  RoundTrip(input);
}

TEST(LzLiteTest, RandomSizesAndContents) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = rng.Uniform(20000);
    std::string input(n, '\0');
    // Mix of compressible runs and random bytes.
    size_t i = 0;
    while (i < n) {
      if (rng.Bernoulli(0.5)) {
        const size_t run = std::min(n - i, static_cast<size_t>(rng.Uniform(100) + 1));
        std::fill(input.begin() + static_cast<long>(i),
                  input.begin() + static_cast<long>(i + run),
                  static_cast<char>(rng.Uniform(256)));
        i += run;
      } else {
        input[i++] = static_cast<char>(rng.Next());
      }
    }
    RoundTrip(input);
  }
}

TEST(LzLiteTest, OverlappingCopyDistanceOne) {
  // "aaaa..." forces distance-1 overlapping copies (RLE mode).
  RoundTrip(std::string(5000, 'a') + "b" + std::string(5000, 'a'));
}

TEST(LzLiteTest, DecompressRejectsGarbage) {
  std::string output;
  EXPECT_TRUE(LzLiteDecompress(Slice("\xff\xff\xff garbage"), &output).IsCorruption());
}

TEST(LzLiteTest, DecompressRejectsTruncated) {
  std::string compressed;
  LzLiteCompress(std::string(1000, 'q'), &compressed);
  std::string output;
  EXPECT_FALSE(
      LzLiteDecompress(Slice(compressed.data(), compressed.size() / 2), &output).ok());
}

TEST(LzLiteTest, DecompressRejectsBadCopyDistance) {
  // Hand-craft: length header 4, then a copy with distance 9 but empty output.
  std::string bad;
  bad.push_back('\x04');  // varint64: uncompressed length 4
  bad.push_back('\x01');  // copy token
  bad.push_back('\x04');  // len 4
  bad.push_back('\x09');  // distance 9 > output size 0
  std::string output;
  EXPECT_TRUE(LzLiteDecompress(bad, &output).IsCorruption());
}

TEST(LzLiteTest, DecompressDetectsLengthMismatch) {
  std::string compressed;
  LzLiteCompress("hello world hello world", &compressed);
  // Tamper with the declared uncompressed length (first varint byte).
  compressed[0] = '\x05';
  std::string output;
  EXPECT_TRUE(LzLiteDecompress(compressed, &output).IsCorruption());
}

TEST(LzLiteTest, HugeLengthHeaderIsCorruption) {
  // A 2^40-byte length header over a one-byte literal: nothing may be
  // allocated on the header's word alone.
  std::string bad;
  PutVarint64(&bad, uint64_t{1} << 40);
  bad.append("\x00\x01x", 3);  // literal of length 1
  std::string output;
  EXPECT_TRUE(LzLiteDecompress(bad, &output).IsCorruption());
}

TEST(LzLiteTest, CopyPastLengthHeaderIsCorruption) {
  // Header 8, a 4-byte literal, then a copy of 1000 bytes: the copy would
  // grow the output past the header, so it fails before copying anything.
  std::string bad;
  bad.push_back('\x08');
  bad.append("\x00\x04" "abcd", 6);
  bad.push_back('\x01');
  PutVarint32(&bad, 1000);  // len
  bad.push_back('\x04');    // distance
  std::string output;
  EXPECT_TRUE(LzLiteDecompress(bad, &output).IsCorruption());
  EXPECT_LE(output.size(), 8u);
}

}  // namespace
}  // namespace lsmio::lsm
